package sim

import (
	"math"
	"strings"
	"testing"

	"colloid/internal/memsys"
	"colloid/internal/pages"
	"colloid/internal/workloads"
)

func gupsEngine(t *testing.T, antagonist workloads.Intensity, seed uint64, opts ...Option) (*Engine, *workloads.GUPS) {
	t.Helper()
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	g := workloads.DefaultGUPS()
	e, err := New(Config{
		Topology:        topo,
		WorkingSetBytes: g.WorkingSetBytes,
		Profile:         g.Profile(),
		Workload:        g,
		Antagonist:      antagonist,
		Seed:            seed,
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e, g
}

// Config.Workload installs what a hand install through Tenant(0) after
// New does and leaves the workload stream where the hand install left
// it: the oracle's manual placement draws from that stream next.
func TestConfigWorkloadMatchesManualInstall(t *testing.T) {
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	g := workloads.DefaultGUPS()
	cfg := Config{Topology: topo, WorkingSetBytes: g.WorkingSetBytes, Profile: g.Profile(), Seed: 9}
	manual, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := manual.Tenant(0)
	if err := g.Install(h.AS(), h.WorkloadRNG()); err != nil {
		t.Fatal(err)
	}
	cfg.Workload = workloads.DefaultGUPS()
	auto, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := h.AS(), auto.Tenant(0).AS()
	for id := range pages.PageID(a.NumPages()) {
		if wa, wb := a.Weight(id), b.Weight(id); wa != wb {
			t.Fatalf("page %d: weight %v installed by hand, %v by Config.Workload", id, wa, wb)
		}
	}
	if x, y := h.WorkloadRNG().Uint64(), auto.Tenant(0).WorkloadRNG().Uint64(); x != y {
		t.Fatalf("next workload draw %#x after a hand install, %#x after Config.Workload", x, y)
	}
}

func TestEngineRunsWithoutSystem(t *testing.T) {
	e, _ := gupsEngine(t, 0, 1)
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	st := e.Tenant(0).SteadyState(3)
	if st.OpsPerSec <= 0 {
		t.Fatal("no throughput")
	}
	if st.LatencyNs[0] < 70 || st.LatencyNs[1] < 135 {
		t.Fatalf("latencies below unloaded: %v", st.LatencyNs)
	}
	if len(e.Tenant(0).Samples()) == 0 {
		t.Fatal("no samples recorded")
	}
}

// packHotSet emulates the baselines' steady state: every hot page in
// the default tier, cold pages filling the rest.
func packHotSet(t *testing.T, e *Engine, g *workloads.GUPS) {
	t.Helper()
	as := e.AS()
	var coldInDefault []pages.PageID
	as.ForEachLive(func(p pages.Page) {
		if p.Tier == memsys.DefaultTier && !g.IsHot(p.ID) {
			coldInDefault = append(coldInDefault, p.ID)
		}
	})
	as.ForEachLive(func(p pages.Page) {
		if p.Tier != memsys.DefaultTier && g.IsHot(p.ID) {
			if len(coldInDefault) == 0 {
				t.Fatal("ran out of cold victims while packing")
			}
			victim := coldInDefault[len(coldInDefault)-1]
			coldInDefault = coldInDefault[:len(coldInDefault)-1]
			if err := as.Move(victim, 1); err != nil {
				t.Fatal(err)
			}
			if err := as.Move(p.ID, memsys.DefaultTier); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestContentionReducesThroughput(t *testing.T) {
	run := func(intensity workloads.Intensity) float64 {
		e, g := gupsEngine(t, intensity, 2)
		packHotSet(t, e, g)
		if err := e.Run(5); err != nil {
			t.Fatal(err)
		}
		return e.Tenant(0).SteadyState(3).OpsPerSec
	}
	t0 := run(0)
	t3 := run(workloads.Intensity3x)
	// Packed placement under 3x contention: the paper reports ~3.4x
	// throughput loss for contention-agnostic systems.
	ratio := t0 / t3
	if ratio < 2.5 || ratio > 4.5 {
		t.Fatalf("0x/3x throughput ratio = %.2f, want ~3.4", ratio)
	}
}

func TestScheduleAtFires(t *testing.T) {
	e, _ := gupsEngine(t, 0, 3)
	fired := false
	e.ScheduleAt(1.0, func(en *Engine) {
		fired = true
		en.antagonist.Cores = 15
	})
	if err := e.Run(0.5); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event fired early")
	}
	if err := e.Run(1.0); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event did not fire")
	}
}

func TestAntagonistChangeShowsInLatency(t *testing.T) {
	e, _ := gupsEngine(t, 0, 4)
	e.ScheduleAt(2, func(en *Engine) { en.antagonist.Cores = 15 })
	if err := e.Run(4); err != nil {
		t.Fatal(err)
	}
	samples := e.Tenant(0).Samples()
	var before, after float64
	for _, s := range samples {
		if s.TimeSec <= 2 {
			before = s.LatencyNs[0]
		} else {
			after = s.LatencyNs[0]
		}
	}
	if after < before*1.5 {
		t.Fatalf("contention step did not raise default latency: %.0f -> %.0f", before, after)
	}
}

// A trivial system that demotes the hottest pages it samples; checks
// the Context plumbing end to end.
type demoter struct{ moved int }

func (d *demoter) Name() string { return "demoter" }
func (d *demoter) Step(ctx *Context) {
	for i := 0; i < 4; i++ {
		id := ctx.Sampler.Sample()
		if id == pages.NoPage {
			continue
		}
		if ctx.AS.Tier(id) == memsys.DefaultTier {
			if err := ctx.Migrator.Move(id, 1); err == nil {
				d.moved++
			}
		}
	}
}

func TestSystemReceivesContextAndMigrates(t *testing.T) {
	d := &demoter{}
	e, _ := gupsEngine(t, 0, 5, WithSystem(d))
	pBefore := e.AS().DefaultShare()
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	if d.moved == 0 {
		t.Fatal("system never migrated")
	}
	if e.AS().DefaultShare() >= pBefore {
		t.Fatal("demotions did not reduce default share")
	}
}

// scaler sets a different inflight scale every quantum. With relay on
// it first swaps its own relay into the Context, around the setter it
// found there, as a timing wrapper does; looped records the relay
// being handed back to itself.
type scaler struct {
	relay     bool
	set, wrap func(float64)
	inRelay   bool
	looped    bool
}

func newScaler(relay bool) *scaler {
	s := &scaler{relay: relay}
	s.wrap = func(scale float64) {
		if s.inRelay {
			s.looped = true
			return
		}
		s.inRelay = true
		s.set(scale)
		s.inRelay = false
	}
	return s
}

func (s *scaler) Name() string { return "scaler" }

func (s *scaler) Step(ctx *Context) {
	if s.relay {
		s.set, ctx.SetInflightScale = ctx.SetInflightScale, s.wrap
	}
	ctx.SetInflightScale(0.5 + 0.1*float64(ctx.QuantumIndex%4))
}

// The engine reuses one Context per tenant, so it must hand out its own
// setter every quantum even after a system replaced it with a relay.
func TestSetInflightScaleSurvivesRelay(t *testing.T) {
	relayed, direct := newScaler(true), newScaler(false)
	a, _ := gupsEngine(t, workloads.Intensity1x, 8, WithSystem(relayed))
	b, _ := gupsEngine(t, workloads.Intensity1x, 8, WithSystem(direct))
	for q := 0; q < 6; q++ {
		if err := a.Step(); err != nil {
			t.Fatal(err)
		}
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
		ra, rb := a.LastEquilibrium().Sources[0].RequestRate, b.LastEquilibrium().Sources[0].RequestRate
		if ra != rb {
			t.Fatalf("quantum %d: request rate %v through the relay, %v direct", q, ra, rb)
		}
	}
	if relayed.looped {
		t.Fatal("the relay was handed back to itself as the engine's setter")
	}
}

func TestMigrationTrafficAppearsInLoad(t *testing.T) {
	e, _ := gupsEngine(t, 0, 6, WithSystem(&demoter{}))
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	var sawMigration bool
	for _, s := range e.Tenant(0).Samples() {
		if s.MigrationBytesPerSec > 0 {
			sawMigration = true
		}
	}
	if !sawMigration {
		t.Fatal("migration rate never recorded")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e, _ := gupsEngine(t, workloads.Intensity1x, 42, WithSystem(&demoter{}))
		if err := e.Run(3); err != nil {
			t.Fatal(err)
		}
		var ops []float64
		for _, s := range e.Tenant(0).Samples() {
			ops = append(ops, s.OpsPerSec)
		}
		return ops
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault())
	if _, err := New(Config{Topology: topo}); err == nil {
		t.Fatal("missing working set accepted")
	}
}

func TestNegativeMigrationLimitRejected(t *testing.T) {
	// Regression: withDefaults only special-cases NoMigrationLimit (-1);
	// any other negative limit used to flow through to migrate.NewEngine.
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	g := workloads.DefaultGUPS()
	cfg := Config{
		Topology:        topo,
		WorkingSetBytes: g.WorkingSetBytes,
		Profile:         g.Profile(),
	}
	cfg.MigrationLimitBytesPerSec = -5e9
	if _, err := New(cfg); err == nil {
		t.Fatal("negative migration limit accepted")
	}
	cfg.MigrationLimitBytesPerSec = NoMigrationLimit
	if _, err := New(cfg); err != nil {
		t.Fatalf("NoMigrationLimit rejected: %v", err)
	}
}

func TestScheduleAtManyEventsOrdered(t *testing.T) {
	// ScheduleAt uses a binary-search insert; many insertions in
	// adversarial (descending, duplicate-heavy) order must still fire in
	// time order, with equal times firing in scheduling order.
	e, _ := gupsEngine(t, 0, 8)
	type rec struct {
		at  float64
		seq int
	}
	const n = 2000
	var fired []rec
	for seq := 0; seq < n; seq++ {
		at := 0.05 + float64((n-1-seq)%50)*0.01 // 50 time buckets, descending
		e.ScheduleAt(at, func(*Engine) { fired = append(fired, rec{at, seq}) })
	}
	// The internal queue must be sorted before any event fires.
	for j := 1; j < len(e.events); j++ {
		if e.events[j-1].at > e.events[j].at {
			t.Fatalf("event queue unsorted at %d: %v > %v", j, e.events[j-1].at, e.events[j].at)
		}
	}
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(fired) != n {
		t.Fatalf("fired %d of %d events", len(fired), n)
	}
	for j := 1; j < len(fired); j++ {
		prev, cur := fired[j-1], fired[j]
		if prev.at > cur.at {
			t.Fatalf("events fired out of time order: %v before %v", prev.at, cur.at)
		}
		if prev.at == cur.at && prev.seq > cur.seq {
			t.Fatalf("equal-time events fired out of scheduling order: seq %d before %d", prev.seq, cur.seq)
		}
	}
}

func TestSteadyStateEmptyTrace(t *testing.T) {
	// SteadyState on an engine that has never stepped (no samples) must
	// return the zero summary, not NaN from a 0/0 average.
	e, _ := gupsEngine(t, 0, 9)
	st := e.Tenant(0).SteadyState(10)
	if st.OpsPerSec != 0 {
		t.Fatalf("empty trace OpsPerSec = %v, want 0", st.OpsPerSec)
	}
	for t2, l := range st.LatencyNs {
		if math.IsNaN(l) || l != 0 {
			t.Fatalf("empty trace LatencyNs[%d] = %v, want 0", t2, l)
		}
	}
	// A cutoff excluding every sample must behave the same way.
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	future := *e
	future.timeSec += 1000
	if st := future.Tenant(0).SteadyState(1); st.OpsPerSec != 0 || math.IsNaN(st.OpsPerSec) {
		t.Fatalf("out-of-window steady = %+v, want zero", st)
	}
}

func TestSteadyStateAveraging(t *testing.T) {
	e, _ := gupsEngine(t, 0, 7)
	if err := e.Run(6); err != nil {
		t.Fatal(err)
	}
	st := e.Tenant(0).SteadyState(3)
	// Steady throughput should match individual tail samples closely.
	for _, s := range e.Tenant(0).Samples() {
		if s.TimeSec > 3 {
			if math.Abs(s.OpsPerSec-st.OpsPerSec)/st.OpsPerSec > 0.05 {
				t.Fatalf("tail sample %v deviates from steady mean %v", s.OpsPerSec, st.OpsPerSec)
			}
		}
	}
}

func TestValidateReportsAllProblems(t *testing.T) {
	// Validate must join every problem into one error so a bad
	// invocation fails with the full list, not one complaint per retry.
	cfg := Config{
		QuantumSec:                -1,
		SampleEverySec:            -2,
		Antagonist:                -1,
		MigrationLimitBytesPerSec: -5e9,
		CHANoiseStdDev:            -0.5,
	}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("bad config validated")
	}
	msg := err.Error()
	for _, want := range []string{
		"topology required",
		"working set required",
		"negative quantum",
		"negative sample interval",
		"negative antagonist intensity",
		"negative migration limit",
		"negative CHA noise",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error missing %q:\n%s", want, msg)
		}
	}
}

func TestNoCHANoiseSentinel(t *testing.T) {
	// Regression: withDefaults treats CHANoiseStdDev == 0 as "use the
	// default", so truly noiseless counters need an explicit sentinel,
	// mirroring NoMigrationLimit.
	if got := (Config{CHANoiseStdDev: NoCHANoise}).withDefaults().CHANoiseStdDev; got != 0 {
		t.Fatalf("NoCHANoise maps to stddev %v, want 0", got)
	}
	if got := (Config{}).withDefaults().CHANoiseStdDev; got != 0.01 {
		t.Fatalf("zero maps to stddev %v, want default 0.01", got)
	}

	// Behavioral check: with noiseless counters the CHA-derived latency
	// (Little's law over one quantum's increments) equals the solver's
	// equilibrium latency exactly; with the default noise it cannot.
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	g := workloads.DefaultGUPS()
	mk := func(noise float64) *Engine {
		e, err := New(Config{
			Topology:        topo,
			WorkingSetBytes: g.WorkingSetBytes,
			Profile:         g.Profile(),
			Workload:        g,
			CHANoiseStdDev:  noise,
			Seed:            1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	chaError := func(e *Engine) float64 {
		before := e.counters.Read()
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		after := e.counters.Read()
		var worst float64
		for tier := range after.Inserts {
			dIns := after.Inserts[tier] - before.Inserts[tier]
			dOcc := after.OccupancyIntegralNs[tier] - before.OccupancyIntegralNs[tier]
			if dIns == 0 {
				continue
			}
			rel := math.Abs(dOcc/dIns-e.eq.LatencyNs[tier]) / e.eq.LatencyNs[tier]
			if rel > worst {
				worst = rel
			}
		}
		return worst
	}
	if rel := chaError(mk(NoCHANoise)); rel > 1e-9 {
		t.Fatalf("noiseless CHA counters off by %v relative", rel)
	}
	if rel := chaError(mk(0)); rel < 1e-6 {
		t.Fatalf("default noise produced exact counters (rel err %v); sentinel check is vacuous", rel)
	}
}
