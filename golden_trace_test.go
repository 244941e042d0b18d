package colloid

import (
	"fmt"
	"testing"

	"colloid/internal/core"
	"colloid/internal/hemem"
	"colloid/internal/memsys"
	"colloid/internal/memtis"
	"colloid/internal/migrate"
	"colloid/internal/scenario"
	"colloid/internal/sim"
	"colloid/internal/simtest"
	"colloid/internal/tpp"
	"colloid/internal/workloads"
)

// goldenSystems are the six tiering systems every placement golden
// runs, keyed by golden name.
var goldenSystems = map[string]func() sim.System{
	"hemem":          func() sim.System { return hemem.New(hemem.Config{}) },
	"hemem+colloid":  func() sim.System { return hemem.New(hemem.Config{Colloid: &core.Options{}}) },
	"tpp":            func() sim.System { return tpp.New(tpp.Config{}) },
	"tpp+colloid":    func() sim.System { return tpp.New(tpp.Config{Colloid: &core.Options{}}) },
	"memtis":         func() sim.System { return memtis.New(memtis.Config{}) },
	"memtis+colloid": func() sim.System { return memtis.New(memtis.Config{Colloid: &core.Options{}}) },
}

// goldenWorkerCounts is the sharded-pipeline worker sweep every golden
// family runs; 7 deliberately does not divide the 16 logical shards
// evenly.
func goldenWorkerCounts() []int {
	if testing.Short() {
		return []int{1, 4}
	}
	return []int{1, 2, 4, 7}
}

// TestGoldenPlacementTraces pins a checksum over the full sample trace
// and final page placement of a short contended GUPS run for every
// tiering system, swept across sharded-pipeline worker counts. The
// scale refactors (sharded per-quantum pipeline, fixed-size pages) must
// be behaviour-preserving: any change to a placement decision, a
// sample, or iteration order shows up here as a checksum mismatch, and
// a worker-dependent result shows up as one worker count disagreeing
// with the rest. There is ONE golden per system, not one per worker
// count — that is the point. If a hash changes on purpose (an
// intentional semantic fix), update the golden to the printed actual
// value and say why in the commit message.
func TestGoldenPlacementTraces(t *testing.T) {
	golden := map[string]uint64{
		"hemem":          0xedecbe41f9196929,
		"hemem+colloid":  0xb6d39d4a3494081d,
		"tpp":            0xb2ed98fc88698975,
		"tpp+colloid":    0x5342c7cab5d7c6ed,
		"memtis":         0x1b3e72cc001f543f,
		"memtis+colloid": 0x251dbb62625142a0,
	}
	for name, mk := range goldenSystems {
		name, mk := name, mk
		for _, w := range goldenWorkerCounts() {
			w := w
			t.Run(fmt.Sprintf("%s/workers=%d", name, w), func(t *testing.T) {
				e, _ := simtest.Run(t, mk(), simtest.Scenario{
					Antagonist: workloads.Intensity3x,
					Seconds:    5,
					Seed:       42,
					Workers:    w,
				})
				got := traceChecksum(e)
				if got != golden[name] {
					t.Fatalf("trace checksum = %#x, golden %#x — placement or sample trace changed (workers=%d)", got, golden[name], w)
				}
			})
		}
	}
}

// TestGoldenFaultWindowTraces pins the migration loops' fault path: the
// TestGoldenPlacementTraces run with two injected migration fault
// windows — FaultFail (copies burn budget and bandwidth, then abort)
// early in the run, FaultStall (moves rejected for free) later. Every
// system keeps migrating around the windows, so one checksum covers how
// its loops react to failed moves: which loop stops at the first
// failure, which goes on to the next page, and what the victim probes
// draw meanwhile. The fold adds the engine's fault and move totals to
// the trace, so a loop that makes more or fewer doomed attempts shows
// up even where placement agrees.
func TestGoldenFaultWindowTraces(t *testing.T) {
	golden := map[string]uint64{
		"hemem":          0xba0dd849e2e7f64f,
		"hemem+colloid":  0x89fe546d5aacec1a,
		"tpp":            0x06e60710c7b68044,
		"tpp+colloid":    0xba427b1add3f7540,
		"memtis":         0x0898dac4467b069b,
		"memtis+colloid": 0xa8cc88c49d33839d,
	}
	faults := &scenario.Scenario{Name: "golden-faults", Events: []scenario.Event{
		scenario.MigrationStall{AtSec: 0.5, Fault: migrate.FaultFail, Quanta: 150},
		scenario.MigrationStall{AtSec: 3, Fault: migrate.FaultStall, Quanta: 60},
	}}
	for name, mk := range goldenSystems {
		name, mk := name, mk
		for _, w := range goldenWorkerCounts() {
			w := w
			t.Run(fmt.Sprintf("%s/workers=%d", name, w), func(t *testing.T) {
				g := workloads.DefaultGUPS()
				e, err := sim.New(sim.Config{
					Topology:        memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote()),
					WorkingSetBytes: g.WorkingSetBytes,
					Profile:         g.Profile(),
					Antagonist:      workloads.Intensity3x,
					Seed:            42,
					Workers:         w,
				}, sim.WithSystem(mk()), sim.WithScenario(faults))
				if err != nil {
					t.Fatal(err)
				}
				if err := g.Install(e.AS(), e.WorkloadRNG()); err != nil {
					t.Fatal(err)
				}
				if err := e.Run(5); err != nil {
					t.Fatal(err)
				}
				failed, partial := e.Tenant(0).Migrator().FaultTotals()
				bytes, moves, _, _ := e.Tenant(0).Migrator().Totals()
				if failed == 0 || moves == 0 {
					t.Fatalf("%d failed and %d applied moves: the arm must migrate both inside and outside the fault windows", failed, moves)
				}
				d := simtest.NewDigest()
				d.Samples(e.Tenant(0).Samples())
				d.Placement(e.AS())
				for _, v := range []int64{failed, partial, bytes, moves} {
					d.I64(v)
				}
				if got := d.Sum(); got != golden[name] {
					t.Fatalf("fault-window checksum = %#x, golden %#x — a migration loop's fault path changed (workers=%d)", got, golden[name], w)
				}
			})
		}
	}
}

// traceChecksum folds every sample and the final placement into one
// FNV-1a hash (via the shared simtest.Digest stream); any bit-level
// difference in the run's observable behaviour changes it.
func traceChecksum(e *sim.Engine) uint64 {
	d := simtest.NewDigest()
	d.Samples(e.Tenant(0).Samples())
	d.Placement(e.AS())
	return d.Sum()
}
