package colloid

import (
	"fmt"
	"testing"

	"colloid/internal/core"
	"colloid/internal/hemem"
	"colloid/internal/memtis"
	"colloid/internal/sim"
	"colloid/internal/simtest"
	"colloid/internal/tpp"
	"colloid/internal/workloads"
)

// TestGoldenPlacementTraces pins a checksum over the full sample trace
// and final page placement of a short contended GUPS run for every
// tiering system, swept across sharded-pipeline worker counts. The
// scale refactors (batched migration, sharded per-quantum pipeline,
// fixed-size pages) must be behaviour-preserving: any
// change to a placement decision, a sample, or iteration order shows up
// here as a checksum mismatch, and a worker-dependent result shows up
// as one worker count disagreeing with the rest. There is ONE golden
// per system, not one per worker count — that is the point. If a hash
// changes on purpose (an intentional semantic fix), update the golden
// to the printed actual value and say why in the commit message.
func TestGoldenPlacementTraces(t *testing.T) {
	golden := map[string]uint64{
		"hemem":          0xedecbe41f9196929,
		"hemem+colloid":  0xb6d39d4a3494081d,
		"tpp":            0xb2ed98fc88698975,
		"tpp+colloid":    0x5342c7cab5d7c6ed,
		"memtis":         0x1b3e72cc001f543f,
		"memtis+colloid": 0x251dbb62625142a0,
	}
	systems := map[string]func() sim.System{
		"hemem":          func() sim.System { return hemem.New(hemem.Config{}) },
		"hemem+colloid":  func() sim.System { return hemem.New(hemem.Config{Colloid: &core.Options{}}) },
		"tpp":            func() sim.System { return tpp.New(tpp.Config{}) },
		"tpp+colloid":    func() sim.System { return tpp.New(tpp.Config{Colloid: &core.Options{}}) },
		"memtis":         func() sim.System { return memtis.New(memtis.Config{}) },
		"memtis+colloid": func() sim.System { return memtis.New(memtis.Config{Colloid: &core.Options{}}) },
	}
	// 7 deliberately does not divide the 16 logical shards evenly.
	workerCounts := []int{1, 2, 4, 7}
	if testing.Short() {
		workerCounts = []int{1, 4}
	}
	for name, mk := range systems {
		name, mk := name, mk
		for _, w := range workerCounts {
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

// traceChecksum folds every sample and the final placement into one
// FNV-1a hash (via the shared simtest.Digest stream); any bit-level
// difference in the run's observable behaviour changes it.
func traceChecksum(e *sim.Engine) uint64 {
	d := simtest.NewDigest()
	d.Samples(e.Samples())
	d.Placement(e.AS())
	return d.Sum()
}
