package workloads

import (
	"math"
	"testing"

	"colloid/internal/memsys"
	"colloid/internal/pages"
	"colloid/internal/stats"
)

func testSpace(t *testing.T) *pages.AddressSpace {
	t.Helper()
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	as, err := pages.NewAddressSpace(topo, 72*memsys.GiB, pages.HugePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

func sumWeights(as *pages.AddressSpace) float64 {
	var sum float64
	as.ForEachLive(func(p pages.Page) { sum += p.Weight })
	return sum
}

func TestGUPSInstall(t *testing.T) {
	as := testSpace(t)
	g := DefaultGUPS()
	if err := g.Install(as, stats.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	if got := sumWeights(as); math.Abs(got-1) > 1e-9 {
		t.Fatalf("weights sum to %v", got)
	}
	wantHot := int(24 * memsys.GiB / pages.HugePageBytes)
	if g.HotPages() != wantHot {
		t.Fatalf("hot pages = %d, want %d", g.HotPages(), wantHot)
	}
	// A hot page carries ~0.9/nHot + 0.1/nAll; a cold page ~0.1/nAll.
	var hotW, coldW float64
	as.ForEachLive(func(p pages.Page) {
		if g.IsHot(p.ID) {
			hotW = p.Weight
		} else {
			coldW = p.Weight
		}
	})
	if hotW <= 10*coldW {
		t.Fatalf("hot weight %v not much larger than cold %v", hotW, coldW)
	}
	// IsHot answers for any ID: outside the address space nothing is hot.
	for _, id := range []pages.PageID{pages.NoPage, pages.PageID(as.NumPages())} {
		if g.IsHot(id) {
			t.Fatalf("IsHot(%d) = true outside the address space", id)
		}
	}
}

func TestGUPSHotSetMassFractions(t *testing.T) {
	as := testSpace(t)
	g := DefaultGUPS()
	if err := g.Install(as, stats.NewRNG(2)); err != nil {
		t.Fatal(err)
	}
	var hotMass float64
	as.ForEachLive(func(p pages.Page) {
		if g.IsHot(p.ID) {
			hotMass += p.Weight
		}
	})
	// Hot set carries 0.9 plus its uniform share of the cold mass
	// (24/72 of 0.1).
	want := 0.9 + 0.1*(24.0/72.0)
	if math.Abs(hotMass-want) > 1e-9 {
		t.Fatalf("hot set mass = %v, want %v", hotMass, want)
	}
}

func TestGUPSShiftHotSet(t *testing.T) {
	as := testSpace(t)
	g := DefaultGUPS()
	if err := g.Install(as, stats.NewRNG(3)); err != nil {
		t.Fatal(err)
	}
	before := make(map[pages.PageID]bool)
	as.ForEachLive(func(p pages.Page) {
		if g.IsHot(p.ID) {
			before[p.ID] = true
		}
	})
	g.ShiftHotSet(as, stats.NewRNG(99))
	overlap := 0
	as.ForEachLive(func(p pages.Page) {
		if g.IsHot(p.ID) && before[p.ID] {
			overlap++
		}
	})
	// Random re-draw: expected overlap is |hot|^2/|all| = 1/3 of hot.
	if overlap == len(before) {
		t.Fatal("hot set unchanged after shift")
	}
	after := 0
	as.ForEachLive(func(p pages.Page) {
		if g.IsHot(p.ID) {
			after++
		}
	})
	if after != len(before) || g.HotPages() != after {
		t.Fatalf("after shift: %d hot pages, HotPages %d, want %d", after, g.HotPages(), len(before))
	}
	if got := sumWeights(as); math.Abs(got-1) > 1e-9 {
		t.Fatalf("weights sum to %v after shift", got)
	}
}

// A shift allocates only its permutation prefix, which it drops: the
// hot-set marks and the weights reuse their storage.
func TestGUPSShiftAllocatesOnce(t *testing.T) {
	as := testSpace(t)
	g := DefaultGUPS()
	rng := stats.NewRNG(3)
	if err := g.Install(as, rng); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() { g.ShiftHotSet(as, rng) }); allocs != 1 {
		t.Fatalf("ShiftHotSet allocates %v times, want 1", allocs)
	}
}

func TestGUPSValidate(t *testing.T) {
	bad := []*GUPS{
		{WorkingSetBytes: 0, HotSetBytes: 1, HotProb: 0.9, ObjectBytes: 64, Cores: 1},
		{WorkingSetBytes: 1, HotSetBytes: 2, HotProb: 0.9, ObjectBytes: 64, Cores: 1},
		{WorkingSetBytes: 2, HotSetBytes: 1, HotProb: 1.5, ObjectBytes: 64, Cores: 1},
		{WorkingSetBytes: 2, HotSetBytes: 1, HotProb: 0.9, ObjectBytes: 32, Cores: 1},
		{WorkingSetBytes: 2, HotSetBytes: 1, HotProb: 0.9, ObjectBytes: 64, Cores: 0},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if err := DefaultGUPS().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestObjectSizeScaling(t *testing.T) {
	// Figure 8 anchor: 4 KB objects sustain 2.82x the in-flight
	// requests of 64 B objects.
	ratio := InflightForObjectSize(4096) / InflightForObjectSize(64)
	if math.Abs(ratio-2.83) > 0.03 {
		t.Fatalf("inflight ratio 4096/64 = %v, want ~2.83", ratio)
	}
	if got := SeqFractionForObjectSize(64); got != 0 {
		t.Fatalf("seq fraction at 64 B = %v", got)
	}
	if got := SeqFractionForObjectSize(4096); math.Abs(got-0.984) > 0.01 {
		t.Fatalf("seq fraction at 4 KB = %v", got)
	}
	if got := SeqFractionForObjectSize(32); got != 0 {
		t.Fatalf("sub-cacheline seq fraction = %v", got)
	}
}

func TestProfileSourceAndOps(t *testing.T) {
	g := DefaultGUPS()
	g.ObjectBytes = 256
	p := g.Profile()
	src := p.Source([]float64{0.7, 0.3})
	if src.Cores != 15 || src.TierShare[0] != 0.7 {
		t.Fatalf("source = %+v", src)
	}
	// 256 B objects: 4 requests per op.
	if got := p.OpsPerSec(4e9); math.Abs(got-1e9) > 1 {
		t.Fatalf("ops/sec = %v", got)
	}
	empty := Profile{}
	if got := empty.OpsPerSec(5); got != 5 {
		t.Fatalf("zero RequestsPerOp ops = %v", got)
	}
}

func TestAntagonistIntensityMapping(t *testing.T) {
	for intensity, cores := range map[Intensity]int{0: 0, 1: 5, 2: 10, 3: 15} {
		if got := AntagonistForIntensity(intensity).Cores; got != cores {
			t.Errorf("intensity %d -> %d cores, want %d", intensity, got, cores)
		}
	}
	if got := AntagonistForIntensity(-1).Cores; got != 0 {
		t.Errorf("negative intensity -> %d cores", got)
	}
	src := Antagonist{Cores: 5}.Source(2)
	if src.TierShare[0] != 1 || src.TierShare[1] != 0 {
		t.Errorf("antagonist not pinned to default tier: %v", src.TierShare)
	}
	if src.SeqFraction != 1 {
		t.Errorf("antagonist not sequential")
	}
}

func TestFromWeights(t *testing.T) {
	as := testSpace(t)
	n := as.NumPages()
	ws := make([]float64, n)
	ws[0] = 3
	ws[1] = 1
	fw := &FromWeights{Weights: ws}
	if err := fw.Install(as, nil); err != nil {
		t.Fatal(err)
	}
	ids := as.LiveIDs()
	if got := as.Weight(ids[0]); math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("page 0 weight = %v, want 0.75", got)
	}
	if got := sumWeights(as); math.Abs(got-1) > 1e-9 {
		t.Fatalf("weights sum to %v", got)
	}
}

func TestFromWeightsErrors(t *testing.T) {
	as := testSpace(t)
	cases := []*FromWeights{
		{Weights: nil},
		{Weights: []float64{-1, 2}},
		{Weights: []float64{0, 0}},
	}
	for i, fw := range cases {
		if err := fw.Install(as, nil); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
