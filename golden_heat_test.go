package colloid

import (
	"fmt"
	"testing"

	"colloid/internal/heat"
	"colloid/internal/simtest"
	"colloid/internal/workloads"
)

// TestGoldenRegionTrackerFidelity pins the tracker seam: a
// RegionTracker at granularity 1 with the pass-through forecaster must
// reproduce the exact tracker's behavior bit for bit, so every system
// run on it must land on the SAME golden checksums
// TestGoldenPlacementTraces pins for exact tracking — same scenario,
// same seed, every worker count. A mismatch here means the region
// tracker's growth rule, cooling trigger, shard plan, or query ordering
// diverged from the exact tracker's; there is no separate golden to
// update.
func TestGoldenRegionTrackerFidelity(t *testing.T) {
	golden := map[string]uint64{
		"hemem":          0xedecbe41f9196929,
		"hemem+colloid":  0xb6d39d4a3494081d,
		"tpp":            0xb2ed98fc88698975,
		"tpp+colloid":    0x5342c7cab5d7c6ed,
		"memtis":         0x1b3e72cc001f543f,
		"memtis+colloid": 0x251dbb62625142a0,
	}
	for name, mk := range goldenSystems {
		for _, w := range goldenWorkerCounts() {
			t.Run(fmt.Sprintf("%s/workers=%d", name, w), func(t *testing.T) {
				e, _ := simtest.Run(t, mk(), simtest.Scenario{
					Antagonist: workloads.Intensity3x,
					Heat:       heat.Spec{Kind: heat.Region, RegionPages: 1},
					Seconds:    5,
					Seed:       42,
					Workers:    w,
				})
				got := traceChecksum(e)
				if got != golden[name] {
					t.Fatalf("region/1 checksum = %#x, exact golden %#x — coarse tracker not bit-identical at granularity 1 (workers=%d)", got, golden[name], w)
				}
			})
		}
	}
}
