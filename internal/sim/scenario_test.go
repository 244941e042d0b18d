package sim

import (
	"math"
	"reflect"
	"testing"

	"colloid/internal/memsys"
	"colloid/internal/migrate"
	"colloid/internal/obs"
	"colloid/internal/pages"
	"colloid/internal/scenario"
	"colloid/internal/stats"
	"colloid/internal/workloads"
)

// gupsEngineOpts mirrors gupsEngine but goes through the options API.
func gupsEngineOpts(t *testing.T, seed uint64, reg *obs.Registry, opts ...Option) (*Engine, *workloads.GUPS) {
	t.Helper()
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	g := workloads.DefaultGUPS()
	e, err := New(Config{
		Topology:        topo,
		WorkingSetBytes: g.WorkingSetBytes,
		Profile:         g.Profile(),
		Workload:        g,
		Seed:            seed,
		Obs:             reg,
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e, g
}

func TestScheduleAtQuantumBoundary(t *testing.T) {
	// An event at exactly a quantum boundary must fire deterministically
	// within one quantum of its nominal time, despite the engine clock
	// being a float accumulation of 0.01 steps.
	fireTime := func() float64 {
		e, _ := gupsEngine(t, 0, 11)
		fired := math.NaN()
		e.scheduleAt(1.0, func(en *Engine) { fired = en.timeSec })
		if err := e.Run(2); err != nil {
			t.Fatal(err)
		}
		return fired
	}
	a := fireTime()
	if math.IsNaN(a) {
		t.Fatal("boundary event never fired")
	}
	if a < 1.0-1e-9 || a > 1.0+0.01+1e-9 {
		t.Fatalf("boundary event fired at %v, want within one quantum of 1.0", a)
	}
	if b := fireTime(); b != a {
		t.Fatalf("boundary firing time not deterministic: %v vs %v", a, b)
	}
}

func TestScenarioEqualTimeEventsFireInDeclaredOrder(t *testing.T) {
	// Two scenario events at the same timestamp must fire in declaration
	// order (the compile is a stable sort onto a FIFO-on-ties queue).
	var order []string
	mark := func(label string) func(*pages.AddressSpace, *stats.RNG) {
		return func(*pages.AddressSpace, *stats.RNG) { order = append(order, label) }
	}
	s := &scenario.Scenario{Name: "ties", Events: []scenario.Event{
		scenario.WorkloadShift{AtSec: 0.5, Shift: mark("first")},
		scenario.WorkloadShift{AtSec: 0.5, Shift: mark("second")},
	}}
	e, _ := gupsEngineOpts(t, 12, nil, WithScenario(s))
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("equal-time scenario events fired as %v, want [first second]", order)
	}
}

func TestScenarioMatchesHandWrittenSchedule(t *testing.T) {
	// The tentpole determinism contract: a scenario-driven run is
	// bit-identical to the same disturbances hand-scheduled with
	// scheduleAt, because compiled events use the same engine state and
	// RNG streams.
	scenarioRun := func() []Sample {
		s := &scenario.Scenario{Name: "equiv", Events: []scenario.Event{
			scenario.AntagonistStep{AtSec: 1, Intensity: workloads.Intensity3x},
		}}
		e, _ := gupsEngineOpts(t, 13, nil, WithScenario(s))
		if err := e.Run(3); err != nil {
			t.Fatal(err)
		}
		return e.Tenant(0).Samples()
	}
	handRun := func() []Sample {
		e, _ := gupsEngineOpts(t, 13, nil)
		e.scheduleAt(1, func(en *Engine) { en.antagonist.Cores = workloads.Intensity3x.Cores() })
		if err := e.Run(3); err != nil {
			t.Fatal(err)
		}
		return e.Tenant(0).Samples()
	}
	a, b := scenarioRun(), handRun()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("scenario-driven samples differ from hand-scheduled equivalent")
	}
}

func TestScenarioWorkloadShiftMatchesHandWritten(t *testing.T) {
	// Same contract for events that consume the workload RNG stream.
	scenarioRun := func() []Sample {
		topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
		g := workloads.DefaultGUPS()
		s := &scenario.Scenario{Name: "shift", Events: []scenario.Event{
			scenario.WorkloadShift{AtSec: 1, Shift: g.ShiftHotSet},
		}}
		e, err := New(Config{
			Topology: topo, WorkingSetBytes: g.WorkingSetBytes,
			Profile: g.Profile(), Workload: g, Seed: 14,
		}, WithScenario(s))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(3); err != nil {
			t.Fatal(err)
		}
		return e.Tenant(0).Samples()
	}
	handRun := func() []Sample {
		e, g := gupsEngine(t, 0, 14)
		e.scheduleAt(1, func(en *Engine) { g.ShiftHotSet(en.AS(), en.WorkloadRNG()) })
		if err := e.Run(3); err != nil {
			t.Fatal(err)
		}
		return e.Tenant(0).Samples()
	}
	if !reflect.DeepEqual(scenarioRun(), handRun()) {
		t.Fatal("workload-shift scenario samples differ from hand-scheduled equivalent")
	}
}

func TestScenarioRunBitIdentical(t *testing.T) {
	// Same seed + same scenario => bit-identical traces across runs.
	run := func() []Sample {
		sc, err := scenario.Builtin("tier-brownout")
		if err != nil {
			t.Fatal(err)
		}
		e, _ := gupsEngineOpts(t, 15, nil, WithScenario(sc), WithSystem(&demoter{}))
		if err := e.Run(25); err != nil {
			t.Fatal(err)
		}
		return e.Tenant(0).Samples()
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("scenario run not bit-identical across repeats")
	}
}

func TestScenarioTierDegradeShowsInSamplesAndRestores(t *testing.T) {
	reg := obs.NewRegistry()
	reg.EnableTrace(0)
	s := &scenario.Scenario{Name: "brownout", Events: []scenario.Event{
		scenario.TierDegrade{AtSec: 1, Tier: memsys.DefaultTier, LatencyFactor: 3, BandwidthFactor: 1},
		scenario.TierRestore{AtSec: 2, Tier: memsys.DefaultTier},
	}}
	e, _ := gupsEngineOpts(t, 16, reg, WithScenario(s))
	if err := e.Run(3); err != nil {
		t.Fatal(err)
	}
	var before, during, after float64
	for _, smp := range e.Tenant(0).Samples() {
		switch {
		case smp.TimeSec <= 1:
			before = smp.LatencyNs[0]
		case smp.TimeSec <= 2:
			during = smp.LatencyNs[0]
		default:
			after = smp.LatencyNs[0]
		}
	}
	if during < 2*before {
		t.Fatalf("3x degradation raised default latency only %v -> %v", before, during)
	}
	if math.Abs(after-before) > 0.2*before {
		t.Fatalf("restore did not recover latency: %v before vs %v after", before, after)
	}
	var sawDegrade, sawRestore bool
	for _, ev := range reg.Events() {
		switch ev.Kind {
		case obs.EvTierDegrade:
			sawDegrade = true
		case obs.EvTierRestore:
			sawRestore = true
		}
	}
	if !sawDegrade || !sawRestore {
		t.Fatalf("fault events missing from trace: degrade=%v restore=%v", sawDegrade, sawRestore)
	}
}

func TestScenarioDegradeDoesNotLeakAcrossEngines(t *testing.T) {
	// Both engines share one Topology value; the degrading scenario must
	// get a private clone so the clean arm is untouched.
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	g := workloads.DefaultGUPS()
	mk := func(opts ...Option) *Engine {
		e, err := New(Config{
			Topology: topo, WorkingSetBytes: g.WorkingSetBytes,
			Profile: g.Profile(), Workload: g, Seed: 17,
		}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	s := &scenario.Scenario{Name: "leak-check", Events: []scenario.Event{
		scenario.TierDegrade{AtSec: 0, Tier: memsys.DefaultTier, LatencyFactor: 5, BandwidthFactor: 0.5},
	}}
	faulty := mk(WithScenario(s))
	if err := faulty.Run(1); err != nil {
		t.Fatal(err)
	}
	if lf, _ := topo.Tier(memsys.DefaultTier).Degradation(); lf != 1 {
		t.Fatalf("scenario degradation leaked into the shared topology (latFactor %v)", lf)
	}
	clean := mk()
	if err := clean.Run(1); err != nil {
		t.Fatal(err)
	}
	f := faulty.Tenant(0).Samples()[len(faulty.Tenant(0).Samples())-1].LatencyNs[0]
	c := clean.Tenant(0).Samples()[len(clean.Tenant(0).Samples())-1].LatencyNs[0]
	if f <= c {
		t.Fatalf("degraded engine latency %v not above clean %v", f, c)
	}
}

func TestScenarioCHADropoutFreezesCountersAndEmits(t *testing.T) {
	reg := obs.NewRegistry()
	reg.EnableTrace(0)
	s := &scenario.Scenario{Name: "dark", Events: []scenario.Event{
		scenario.CHADropout{AtSec: 1, ForSec: 0.5},
	}}
	e, _ := gupsEngineOpts(t, 18, reg, WithScenario(s))
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	if got := e.counters.DroppedQuanta(); got < 45 || got > 55 {
		t.Fatalf("DroppedQuanta = %d, want ~50 for a 0.5 s outage at 10 ms", got)
	}
	var dropAt, restoreAt float64 = -1, -1
	var droppedField float64
	for _, ev := range reg.Events() {
		switch ev.Kind {
		case obs.EvCHADropout:
			dropAt = ev.TimeSec
		case obs.EvCHARestore:
			restoreAt = ev.TimeSec
			for _, f := range ev.Fields {
				if f.Key == "dropped_quanta" {
					droppedField = f.Val
				}
			}
		}
	}
	if dropAt < 0 || restoreAt < 0 {
		t.Fatalf("dropout events missing: drop=%v restore=%v", dropAt, restoreAt)
	}
	if restoreAt <= dropAt {
		t.Fatalf("restore at %v not after dropout at %v", restoreAt, dropAt)
	}
	if droppedField != float64(e.counters.DroppedQuanta()) {
		t.Fatalf("restore event reports %v dropped quanta, counters say %d",
			droppedField, e.counters.DroppedQuanta())
	}
}

func TestScenarioMigrationStallBlocksSystemMoves(t *testing.T) {
	reg := obs.NewRegistry()
	reg.EnableTrace(0)
	run := func(opts ...Option) (moved int, failed int64) {
		d := &demoter{}
		e, _ := gupsEngineOpts(t, 19, reg, append(opts, WithSystem(d))...)
		if err := e.Run(1); err != nil {
			t.Fatal(err)
		}
		f, _ := e.Tenant(0).Migrator().FaultTotals()
		return d.moved, f
	}
	healthyMoves, healthyFailed := run()
	if healthyFailed != 0 {
		t.Fatalf("healthy run recorded %d injected failures", healthyFailed)
	}
	s := &scenario.Scenario{Name: "outage", Events: []scenario.Event{
		scenario.MigrationStall{AtSec: 0, Fault: migrate.FaultStall, Quanta: 100},
	}}
	stalledMoves, stalledFailed := run(WithScenario(s))
	if stalledFailed == 0 {
		t.Fatal("stall window injected no failures")
	}
	if stalledMoves >= healthyMoves {
		t.Fatalf("stalled run moved %d pages, healthy %d", stalledMoves, healthyMoves)
	}
	var sawStall bool
	for _, ev := range reg.Events() {
		if ev.Kind == obs.EvMigrationStall {
			sawStall = true
		}
	}
	if !sawStall {
		t.Fatal("migration_stall event missing from trace")
	}
}

func TestWithScenarioValidatesAtConstruction(t *testing.T) {
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	g := workloads.DefaultGUPS()
	bad := &scenario.Scenario{Name: "bad", Events: []scenario.Event{
		scenario.TierDegrade{AtSec: 1, Tier: 5, LatencyFactor: 2, BandwidthFactor: 1},
	}}
	_, err := New(Config{
		Topology: topo, WorkingSetBytes: g.WorkingSetBytes,
		Profile: g.Profile(), Seed: 21,
	}, WithScenario(bad))
	if err == nil {
		t.Fatal("out-of-range scenario tier accepted")
	}
}
