package access

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"colloid/internal/memsys"
	"colloid/internal/obs"
	"colloid/internal/pages"
	"colloid/internal/shard"
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

// The guide-table scan must return the page the full binary search
// over the weighted-only CDF returns: on random draws, on and beside
// every CDF entry and bucket edge, and at both ends. (A binary search
// over the dense CDF is no oracle: at 0 it returns a leading
// weightless page.)
func TestSamplerGuideMatchesFullSearch(t *testing.T) {
	for _, n := range []int{1, 2, 7, 9, 64, 1000, 5000} {
		for seed := uint64(1); seed <= 20; seed++ {
			s := seamSampler(t, n, seed)
			checkWeightedCDF(t, s, seed, guideEdges(s)...)
		}
	}
	// GUPS's shape: a scattered hot third at 28 times a cold page's
	// weight. A hot page then spans about 2.8 buckets, so the backfill
	// crosses runs of empty buckets between the filled ones.
	for _, n := range []int{64, 1000, 5000} {
		for seed := uint64(1); seed <= 20; seed++ {
			s := gupsSampler(t, n, seed)
			runs := 0
			for j := 0; j+2 < len(s.guide); j++ {
				if s.guide[j] == s.guide[j+2] {
					runs++
				}
			}
			if runs == 0 {
				t.Fatalf("%d pages, seed %d: no run of two empty buckets", n, seed)
			}
			checkWeightedCDF(t, s, seed, guideEdges(s)...)
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
	checkWeightedCDF(t, s, 1, guideEdges(s)...)
}

// gupsSampler builds a sampler over n 4 KiB pages whose random third
// weighs 28 and the rest 1.
func gupsSampler(t *testing.T, n int, seed uint64) *Sampler {
	t.Helper()
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	as, err := pages.NewAddressSpace(topo, int64(n)*pages.BasePageBytes, pages.BasePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(seed)
	as.SetWeights(func(pages.PageID) float64 { return 1 })
	for _, id := range rng.Perm(nil, n, n/3) {
		as.SetWeight(pages.PageID(id), 28)
	}
	s := NewSampler(as, rng)
	s.Sample() // builds the CDF
	return s
}

// guideEdges returns the CDF value at each guide bucket's lower edge.
func guideEdges(s *Sampler) []float64 {
	edges := make([]float64, len(s.guide))
	for j := range s.guide {
		edges[j] = float64(j) / s.scale
	}
	return edges
}

// The CDF over every page must select the same page as the CDF over
// weighted pages only, and keep each weighted page's entry bit for bit,
// also when the first, a middle or the last shard is wholly weightless.
func TestSamplerMatchesWeightedCDF(t *testing.T) {
	for _, n := range []int{1, 2, 7, 9, 16, 17, 64, 1000, 5000} {
		for seed := uint64(1); seed <= 40; seed++ {
			checkWeightedCDF(t, seamSampler(t, n, seed), seed)
		}
	}
	for _, n := range []int{17, 64, 1000} {
		for _, sh := range []int{0, shard.DefaultShards / 2, shard.DefaultShards - 1} {
			for seed := uint64(1); seed <= 40; seed++ {
				s := seamSampler(t, n, seed)
				lo, hi := shard.NewPlan(n).Range(sh)
				for id := lo; id < hi; id++ {
					s.as.SetWeight(pages.PageID(id), 0)
				}
				s.Sample() // rebuilds the CDF
				checkWeightedCDF(t, s, seed)
			}
		}
	}
}

// SampleN must append exactly the pages n Sample calls give on a twin
// sampler with the same seed (NoPage aside), after any dst prefix, and
// leave both RNGs and sampler_samples counters level: on the seam
// generator's spaces, some wholly weightless, on an all-subnormal
// space, and at draw counts on and around the chunk size. Over a
// weightless space it appends nothing and consumes no draw, and a
// weight change between two calls rebuilds the CDF.
func TestSampleNMatchesSample(t *testing.T) {
	type space struct {
		name string
		make func(seed uint64) *Sampler
	}
	spaces := []space{{"all-subnormal", func(seed uint64) *Sampler {
		as := shardTestSpace(t)
		for _, id := range as.LiveIDs()[:100] {
			as.SetWeight(id, math.SmallestNonzeroFloat64)
		}
		return NewSampler(as, stats.NewRNG(seed))
	}}}
	for _, n := range []int{1, 9, 64, 5000} {
		spaces = append(spaces, space{fmt.Sprintf("%d pages", n), func(seed uint64) *Sampler { return seamSampler(t, n, seed) }})
	}
	prefix := []pages.PageID{pages.NoPage, 3}
	for _, sp := range spaces {
		for seed := uint64(1); seed <= 20; seed++ {
			for _, draws := range []int{0, 1, sampleChunk - 1, sampleChunk, sampleChunk + 1, 3*sampleChunk + 7, 500} {
				a, b := sp.make(seed), sp.make(seed)
				a.SetObs(obs.NewRegistry())
				b.SetObs(obs.NewRegistry())
				got := a.SampleN(slices.Clone(prefix), draws)
				want := slices.Clone(prefix)
				for i := 0; i < draws; i++ {
					if id := b.Sample(); id != pages.NoPage {
						want = append(want, id)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s, seed %d, %d draws: SampleN = %v, Sample gives %v", sp.name, seed, draws, got, want)
				}
				if x, y := a.rng.Float64(), b.rng.Float64(); x != y {
					t.Fatalf("%s, seed %d, %d draws: next Float64 %v after SampleN, %v after Sample", sp.name, seed, draws, x, y)
				}
				if x, y := a.mSamples.Value(), b.mSamples.Value(); x != y {
					t.Fatalf("%s, seed %d, %d draws: sampler_samples %d after SampleN, %d after Sample", sp.name, seed, draws, x, y)
				}
			}
		}
	}

	as := shardTestSpace(t)
	s := NewSampler(as, stats.NewRNG(6))
	if got := s.SampleN(slices.Clone(prefix), 500); !slices.Equal(got, prefix) {
		t.Fatalf("SampleN over a weightless space = %v, want %v", got, prefix)
	}
	if x, y := s.rng.Float64(), stats.NewRNG(6).Float64(); x != y {
		t.Fatalf("SampleN over a weightless space consumed a draw: next Float64 %v, want %v", x, y)
	}
	only := func(got []pages.PageID, n int, id pages.PageID) {
		t.Helper()
		if len(got) != n || slices.ContainsFunc(got, func(g pages.PageID) bool { return g != id }) {
			t.Fatalf("SampleN = %v, want %d draws of page %d", got, n, id)
		}
	}
	ids := as.LiveIDs()
	as.SetWeight(ids[0], 1)
	only(s.SampleN(nil, 10), 10, ids[0])
	as.SetWeight(ids[0], 0)
	as.SetWeight(ids[7], 1)
	only(s.SampleN(nil, 2*sampleChunk+1), 2*sampleChunk+1, ids[7])
}

// weightedCDF is the reference the dense CDF must agree with: s's
// distribution over weighted pages only, built from per-shard weighted
// totals, the ordered reduce, prefix sums over weighted pages and the
// seam clamp on them. ids[k] is the page of entry k.
func weightedCDF(s *Sampler) (cum []float64, ids []pages.PageID) {
	w := s.as.LiveView().Weight
	plan := shard.NewPlan(len(w))
	var counts [shard.DefaultShards]int
	var base [shard.DefaultShards]float64
	acc := 0.0
	for sh := 0; sh < plan.Shards; sh++ {
		lo, hi := plan.Range(sh)
		total := 0.0
		for _, x := range w[lo:hi] {
			if x > 0 {
				counts[sh]++
				total += x
			}
		}
		base[sh] = acc
		acc += total
	}
	for sh := 0; sh < plan.Shards; sh++ {
		lo, hi := plan.Range(sh)
		acc := base[sh]
		for i, x := range w[lo:hi] {
			if x > 0 {
				acc += x
				cum = append(cum, acc)
				ids = append(ids, pages.PageID(lo+i))
			}
		}
	}
	a := counts[0]
	for sh := 1; sh < plan.Shards; sh++ {
		if a > 0 {
			prev := cum[a-1]
			for i := a; i < a+counts[sh] && cum[i] < prev; i++ {
				cum[i] = prev
			}
		}
		a += counts[sh]
	}
	return cum, ids
}

// checkWeightedCDF compares s against weightedCDF: the total and every
// weighted page's entry bit for bit, then the page find returns against
// the binary search of the reference at 20,000 draws, on and beside
// every reference entry and each of extra, and at 0 and the total.
func checkWeightedCDF(t *testing.T, s *Sampler, seed uint64, extra ...float64) {
	t.Helper()
	cum, ids := weightedCDF(s)
	if len(cum) == 0 {
		return
	}
	n := len(s.cum)
	if s.total != cum[len(cum)-1] {
		t.Fatalf("%d pages, seed %d: total %v, want %v", n, seed, s.total, cum[len(cum)-1])
	}
	for k, id := range ids {
		if math.Float64bits(s.cum[id]) != math.Float64bits(cum[k]) {
			t.Fatalf("%d pages, seed %d: cum[%d] = %v, want %v", n, seed, id, s.cum[id], cum[k])
		}
	}
	check := func(x float64) {
		if x < 0 { // draws are never negative
			return
		}
		k := sort.SearchFloat64s(cum, x)
		if k >= len(ids) {
			k = len(ids) - 1
		}
		if got := s.find(x); got != ids[k] {
			t.Fatalf("%d pages, seed %d: find(%v) = page %d, want %d", n, seed, x, got, ids[k])
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
	for _, c := range cum {
		near(c)
	}
	for _, x := range extra {
		near(x)
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
