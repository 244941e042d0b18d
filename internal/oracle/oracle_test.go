package oracle

import (
	"math"
	"testing"

	"colloid/internal/memsys"
	"colloid/internal/pages"
	"colloid/internal/sim"
	"colloid/internal/stats"
	"colloid/internal/workloads"
)

func baseConfig(antagonist workloads.Intensity, seed uint64) (sim.Config, *workloads.GUPS) {
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	g := workloads.DefaultGUPS()
	return sim.Config{
		Topology:        topo,
		WorkingSetBytes: g.WorkingSetBytes,
		Profile:         g.Profile(),
		Workload:        g,
		Antagonist:      antagonist,
		Seed:            seed,
	}, g
}

func TestPlaceFractions(t *testing.T) {
	cfg, g := baseConfig(0, 1)
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0, 0.5, 1} {
		if err := Place(e.AS(), g.IsHot, frac, stats.NewRNG(7)); err != nil {
			t.Fatalf("frac %v: %v", frac, err)
		}
		var hotInDefault, hotTotal int
		e.AS().ForEachLive(func(p pages.Page) {
			if g.IsHot(p.ID) {
				hotTotal++
				if p.Tier == memsys.DefaultTier {
					hotInDefault++
				}
			}
		})
		got := float64(hotInDefault) / float64(hotTotal)
		if math.Abs(got-frac) > 0.01 {
			t.Fatalf("frac %v: placed %v of hot set", frac, got)
		}
		// The default tier must be (nearly) full: cold fill tops it up.
		if e.AS().FreeBytes(memsys.DefaultTier) > pages.HugePageBytes {
			t.Fatalf("frac %v: default tier not filled (%d free)", frac, e.AS().FreeBytes(memsys.DefaultTier))
		}
	}
}

func TestPlaceRejectsBadFraction(t *testing.T) {
	cfg, g := baseConfig(0, 2)
	e, _ := sim.New(cfg)
	if err := Place(e.AS(), g.IsHot, 1.5, stats.NewRNG(1)); err == nil {
		t.Fatal("fraction 1.5 accepted")
	}
}

func TestBestCaseAtZeroContentionPacks(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is 11 simulations")
	}
	cfg, g := baseConfig(0, 3)
	res, err := BestCase(Config{Sim: cfg, IsHot: g.IsHot})
	if err != nil {
		t.Fatal(err)
	}
	// Without contention, packing the hot set wins (Figure 2(b)).
	if res.Best.HotFraction < 0.9 {
		t.Fatalf("best fraction at 0x = %v, want 1.0", res.Best.HotFraction)
	}
	if len(res.Sweep) != 11 {
		t.Fatalf("sweep has %d arms", len(res.Sweep))
	}
}

func TestBestCaseUnderContentionMovesHotSetOut(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is 11 simulations")
	}
	cfg, g := baseConfig(workloads.Intensity3x, 4)
	res, err := BestCase(Config{Sim: cfg, IsHot: g.IsHot})
	if err != nil {
		t.Fatal(err)
	}
	// At 3x the best case places (nearly) the whole hot set in the
	// alternate tier (Figure 2(b): default accounts for only 4% of
	// app bandwidth).
	if res.Best.HotFraction > 0.2 {
		t.Fatalf("best fraction at 3x = %v, want ~0", res.Best.HotFraction)
	}
	// And it must beat the packed arm by roughly the paper's 2.3x.
	packed := res.Sweep[len(res.Sweep)-1]
	gain := res.Best.OpsPerSec / packed.OpsPerSec
	if gain < 1.7 {
		t.Fatalf("best/packed at 3x = %.2f, want > 1.7", gain)
	}
}

func TestBestCaseMonotoneAtEnds(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is 11 simulations")
	}
	cfg, g := baseConfig(workloads.Intensity1x, 5)
	res, err := BestCase(Config{Sim: cfg, IsHot: g.IsHot, Steps: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sweep) != 6 {
		t.Fatalf("sweep has %d arms", len(res.Sweep))
	}
	for _, pt := range res.Sweep {
		if pt.OpsPerSec <= 0 {
			t.Fatalf("arm %v has no throughput", pt.HotFraction)
		}
		if res.Best.OpsPerSec < pt.OpsPerSec {
			t.Fatal("best is not the max")
		}
	}
}
