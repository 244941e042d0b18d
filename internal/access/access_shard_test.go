package access

import (
	"math"
	"sort"
	"testing"

	"colloid/internal/memsys"
	"colloid/internal/pages"
	"colloid/internal/stats"
)

func shardTestSpace(t *testing.T) *pages.AddressSpace {
	t.Helper()
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	as, err := pages.NewAddressSpace(topo, 8*memsys.GiB, pages.HugePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

// The sampled page sequence must be identical at every worker count:
// same CDF bytes, same binary-search results, same RNG consumption.
func TestSamplerWorkerInvariant(t *testing.T) {
	draw := func(workers int) []pages.PageID {
		as := shardTestSpace(t)
		rng := stats.NewRNG(11)
		for _, id := range as.LiveIDs() {
			if rng.Float64() < 0.7 { // leave some zero-weight pages
				as.SetWeight(id, rng.Float64())
			}
		}
		s := NewSampler(as, stats.NewRNG(5))
		s.SetWorkers(workers)
		out := s.SampleN(nil, 512)
		// Mutate weights to force a second rebuild mid-stream.
		as.SetWeight(as.LiveIDs()[3], 2.0)
		return s.SampleN(out, 512)
	}
	want := draw(1)
	for _, workers := range []int{2, 4, 7, 16} {
		got := draw(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d samples, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: sample %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// seamSampler builds a sampler over n 4 KiB pages (four per shard at
// n = 64): a fifth of them weightless, a fifth at 1e-300 and the rest
// spread over 12 decades. Added to a larger running sum, 1e-300 leaves
// it unchanged, so cum holds runs of equal entries; right after a shard
// seam, such a weight exposes any rounding gap between the shard's
// seed and the previous shard's last sum.
func seamSampler(t *testing.T, n int, seed uint64) *Sampler {
	t.Helper()
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	as, err := pages.NewAddressSpace(topo, int64(n)*pages.BasePageBytes, pages.BasePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(seed)
	for id := 0; id < n; id++ {
		switch r := rng.Float64(); {
		case r < 0.2:
		case r < 0.4:
			as.SetWeight(pages.PageID(id), 1e-300)
		default:
			as.SetWeight(pages.PageID(id), math.Pow(10, -12*rng.Float64()))
		}
	}
	s := NewSampler(as, stats.NewRNG(seed))
	s.Sample() // builds the CDF
	return s
}

// A shard's running sum starts from a reduced total that can round
// below the previous shard's last sum; the seam clamp must keep the CDF
// non-decreasing, or the binary search runs on an unsorted slice.
func TestSamplerCDFNonDecreasing(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		s := seamSampler(t, 64, seed)
		for i := 1; i < len(s.cum); i++ {
			if s.cum[i] < s.cum[i-1] {
				t.Errorf("seed %d: cum[%d] = %v < cum[%d] = %v", seed, i, s.cum[i], i-1, s.cum[i-1])
			}
		}
	}
}

// The guide-table search must return exactly the full binary search's
// index: on random draws, on and beside every CDF entry and bucket
// edge, and at both ends.
func TestSamplerGuideMatchesFullSearch(t *testing.T) {
	for _, n := range []int{1, 2, 7, 9, 64, 1000, 5000} {
		for seed := uint64(1); seed <= 20; seed++ {
			checkGuide(t, seamSampler(t, n, seed), seed)
		}
	}
	// Subnormal weights overflow k/total to +Inf: every draw then lands
	// in the last bucket, which must still search the whole CDF.
	as := shardTestSpace(t)
	for _, id := range as.LiveIDs()[:100] {
		as.SetWeight(id, math.SmallestNonzeroFloat64)
	}
	s := NewSampler(as, stats.NewRNG(1))
	s.Sample()
	if !math.IsInf(s.scale, 1) {
		t.Fatalf("scale = %v, want +Inf", s.scale)
	}
	checkGuide(t, s, 1)
}

func checkGuide(t *testing.T, s *Sampler, seed uint64) {
	t.Helper()
	if len(s.cum) == 0 {
		return
	}
	check := func(x float64) {
		if x < 0 { // draws are never negative
			return
		}
		if got, want := s.search(x), sort.SearchFloat64s(s.cum, x); got != want {
			t.Fatalf("%d-entry CDF, seed %d: search(%v) = %d, full search %d", len(s.cum), seed, x, got, want)
		}
	}
	near := func(x float64) {
		check(math.Nextafter(x, math.Inf(-1)))
		check(x)
		check(math.Nextafter(x, math.Inf(1)))
	}
	rng := stats.NewRNG(seed)
	for i := 0; i < 20000; i++ {
		check(rng.Float64() * s.total)
	}
	for _, c := range s.cum {
		near(c)
	}
	for j := range s.guide {
		near(float64(j) / s.scale)
	}
	check(0)
	check(s.total)
}

// Cooling is integer arithmetic: the sharded pass must match the serial
// one exactly — counts, total, and tracked.
func TestCoolWorkerInvariant(t *testing.T) {
	build := func(workers int) *FreqTracker {
		f := NewFreqTracker(1 << 20) // high threshold: cool manually
		f.SetWorkers(workers)
		rng := stats.NewRNG(13)
		for i := 0; i < 20000; i++ {
			f.Touch(pages.PageID(rng.Intn(4096)))
		}
		f.Cool()
		f.Cool()
		return f
	}
	want := build(1)
	for _, workers := range []int{2, 4, 7, 16} {
		got := build(workers)
		if got.Total() != want.Total() || got.Tracked() != want.Tracked() || got.Cools() != want.Cools() {
			t.Fatalf("workers=%d: total/tracked/cools = %d/%d/%d, want %d/%d/%d",
				workers, got.Total(), got.Tracked(), got.Cools(), want.Total(), want.Tracked(), want.Cools())
		}
		for id := pages.PageID(0); int(id) < 4096; id++ {
			if got.Count(id) != want.Count(id) {
				t.Fatalf("workers=%d: count[%d] = %d, want %d", workers, id, got.Count(id), want.Count(id))
			}
		}
	}
}

// The dense tracker must keep Tracked/Total consistent through the
// touch → cool lifecycle.
func TestTrackerLifecycleConsistency(t *testing.T) {
	f := NewFreqTracker(8)
	for i := 0; i < 7; i++ {
		f.Touch(3)
	}
	f.Touch(100) // sparse ID growth
	if f.Tracked() != 2 {
		t.Fatalf("tracked = %d, want 2", f.Tracked())
	}
	f.Touch(3) // hits threshold 8 → cools: 3 has 8/2=4, 100 has 1/2=0
	if f.Cools() != 1 {
		t.Fatalf("cools = %d, want 1", f.Cools())
	}
	if f.Count(3) != 4 || f.Count(100) != 0 {
		t.Fatalf("counts after cool = %d,%d, want 4,0", f.Count(3), f.Count(100))
	}
	if f.Tracked() != 1 || f.Total() != 4 {
		t.Fatalf("tracked/total = %d/%d, want 1/4", f.Tracked(), f.Total())
	}
	if f.Count(100000) != 0 {
		t.Fatal("out-of-range count not zero")
	}
}
