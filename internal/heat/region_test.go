package heat

import (
	"testing"

	"colloid/internal/access"
	"colloid/internal/pages"
	"colloid/internal/shard"
	"colloid/internal/stats"
)

// checkRegionInvariants re-derives every aggregate from the leaf level:
// leaves must tile each split cell exactly with aligned power-of-two
// ranges, cell counts must equal their leaf sums, and the tracker's
// total/tracked must match a full recount. Split and merge both
// conserve counts, so these hold after any operation sequence.
func checkRegionInvariants(t *testing.T, r *RegionTracker) {
	t.Helper()
	var total uint64
	tracked := 0
	for b := range r.cells {
		c := r.cells[b]
		if c.sub == nil {
			total += uint64(c.count)
			if c.count >= uint32(r.g) {
				tracked += r.g
			}
			continue
		}
		var sum uint32
		next := int32(0)
		for _, lf := range c.sub {
			if lf.off != next {
				t.Fatalf("cell %d: leaf at %d, want %d (gap or overlap)", b, lf.off, next)
			}
			if lf.size < 1 || lf.size&(lf.size-1) != 0 {
				t.Fatalf("cell %d: leaf size %d not a power of two", b, lf.size)
			}
			if lf.off%lf.size != 0 {
				t.Fatalf("cell %d: leaf off %d misaligned for size %d", b, lf.off, lf.size)
			}
			sum += lf.count
			if lf.count >= uint32(lf.size) {
				tracked += int(lf.size)
			}
			next += lf.size
		}
		if next != int32(r.g) {
			t.Fatalf("cell %d: leaves tile %d pages, want %d", b, next, r.g)
		}
		if sum != c.count {
			t.Fatalf("cell %d: count %d != leaf sum %d", b, c.count, sum)
		}
		total += uint64(sum)
	}
	if total != r.total {
		t.Fatalf("total %d != recomputed %d", r.total, total)
	}
	if tracked != r.tracked {
		t.Fatalf("tracked %d != recomputed %d", r.tracked, tracked)
	}
}

// Region split/merge under churn: a moving hot spot over a uniform
// background refines regions and cooling merges them back; counts and
// the tracked total stay exactly conserved throughout.
func TestSplitMergeConservationUnderChurn(t *testing.T) {
	r := NewRegionTracker(16, 64, nil)
	rng := stats.NewRNG(7)
	const space = 4096
	for round := 0; round < 40; round++ {
		hotBase := (round * 97) % (space - 64)
		for i := 0; i < 400; i++ {
			var id pages.PageID
			if rng.Intn(10) < 7 {
				id = pages.PageID(hotBase + rng.Intn(64))
			} else {
				id = pages.PageID(rng.Intn(space))
			}
			r.Touch(id)
		}
		checkRegionInvariants(t, r)
		r.Cool()
		checkRegionInvariants(t, r)
	}
	// A sustained hot spot must actually have refined something.
	split := 0
	for b := range r.cells {
		if r.cells[b].sub != nil {
			split++
		}
	}
	if r.cools == 0 {
		t.Fatal("churn never cooled")
	}
	// With no further touches, repeated cooling decays every region to
	// zero and merges every cell back to a single unsplit range.
	for i := 0; i < 20; i++ {
		r.Cool()
		checkRegionInvariants(t, r)
	}
	if r.total != 0 || r.tracked != 0 {
		t.Fatalf("decayed tracker not empty: total=%d tracked=%d", r.total, r.tracked)
	}
	for b := range r.cells {
		if r.cells[b].sub != nil {
			t.Fatalf("cell %d still split after full decay", b)
		}
	}
}

// A cell that Cool merges fully and that splits again to its earlier
// depth makes its leaf list once, at the most leaves it held, instead
// of regrowing it one append at a time; the cooling that merges it
// drops the list again.
func TestResplitAllocatesOneLeafList(t *testing.T) {
	r := NewRegionTracker(16, 64, nil)
	r.SetWorkers(1)
	// Touching one page splits its cell along the page's path down to a
	// single page, seven leaves deep, and the Cool after it merges the
	// halved leaves back into one.
	cycle := func() {
		for split := false; !split; split = r.cells[0].sub != nil {
			r.Touch(5)
		}
		if n := len(r.cells[0].sub); n != 7 {
			t.Fatalf("split cell holds %d leaves, want 7", n)
		}
		r.Cool()
		if r.cells[0].sub != nil {
			t.Fatal("Cool left the cell split")
		}
	}
	cycle()
	if r.cells[0].peak != 7 {
		t.Fatalf("peak = %d after the first split, want 7", r.cells[0].peak)
	}
	if n := testing.AllocsPerRun(20, cycle); n != 1 {
		t.Fatalf("a re-split allocates %v times, want one leaf list", n)
	}
	checkRegionInvariants(t, r)
}

// driveTrackers feeds the same deterministic touch/cool stream
// to both trackers.
func driveTrackers(a, b Tracker, seed uint64, ops int) {
	rng := stats.NewRNG(seed)
	const space = 3000
	for i := 0; i < ops; i++ {
		var id pages.PageID
		if rng.Intn(10) < 6 {
			id = pages.PageID(rng.Intn(64)) // hot head
		} else {
			id = pages.PageID(rng.Intn(space))
		}
		a.Touch(id)
		b.Touch(id)
		if i%500 == 499 {
			a.Cool()
			b.Cool()
		}
	}
}

type pageCount struct {
	id    pages.PageID
	count uint32
}

// A granularity-1 RegionTracker with the pass-through forecaster must be
// bit-identical to the exact tracker on every interface method — the
// property the golden placement traces pin end to end.
func TestGranularity1MatchesExact(t *testing.T) {
	exact := access.NewFreqTracker(16)
	region := NewRegionTracker(16, 1, nil)
	exact.SetWorkers(3)
	region.SetWorkers(3)
	driveTrackers(exact, region, 11, 8000)

	if exact.Total() != region.Total() {
		t.Fatalf("total: exact %d, region %d", exact.Total(), region.Total())
	}
	if exact.Tracked() != region.Tracked() {
		t.Fatalf("tracked: exact %d, region %d", exact.Tracked(), region.Tracked())
	}
	if exact.Cools() != region.Cools() {
		t.Fatalf("cools: exact %d, region %d", exact.Cools(), region.Cools())
	}
	for id := pages.PageID(0); id < 3000; id++ {
		if e, r := exact.Count(id), region.Count(id); e != r {
			t.Fatalf("count(%d): exact %d, region %d", id, e, r)
		}
		if e, r := exact.Probability(id), region.Probability(id); e != r {
			t.Fatalf("probability(%d): exact %v, region %v", id, e, r)
		}
	}
	// The windows run past both count arrays, where each must write
	// zeros over the sentinel.
	eCounts, rCounts := make([]uint32, 1<<14), make([]uint32, 1<<14)
	for _, lo := range []pages.PageID{0, 2999, 1 << 14} {
		for i := range eCounts {
			eCounts[i], rCounts[i] = 0xdead, 0xdead
		}
		exact.ReadCounts(lo, eCounts)
		region.ReadCounts(lo, rCounts)
		for i := range eCounts {
			if eCounts[i] != rCounts[i] {
				t.Fatalf("ReadCounts(%d)[%d]: exact %d, region %d", lo, i, eCounts[i], rCounts[i])
			}
		}
	}

	var eSeq, rSeq []pageCount
	exact.ForEachHottest(func(id pages.PageID, c uint32) bool {
		eSeq = append(eSeq, pageCount{id, c})
		return len(eSeq) >= 200
	})
	region.ForEachHottest(func(id pages.PageID, c uint32) bool {
		rSeq = append(rSeq, pageCount{id, c})
		return len(rSeq) >= 200
	})
	comparePageCounts(t, "ForEachHottest", eSeq, rSeq)

	keep := func(id pages.PageID) bool { return id%2 == 0 }
	eHot := exact.AppendHot(nil, 2, keep, 100)
	rHot := region.AppendHot(nil, 2, keep, 100)
	if len(eHot) != len(rHot) {
		t.Fatalf("AppendHot: exact %d ids, region %d", len(eHot), len(rHot))
	}
	for i := range eHot {
		if eHot[i] != rHot[i] {
			t.Fatalf("AppendHot[%d]: exact %d, region %d", i, eHot[i], rHot[i])
		}
	}

	v := syntheticView(3000)
	eHist := make([]int64, 8)
	rHist := make([]int64, 8)
	exact.BytesByCount(eHist, v)
	region.BytesByCount(rHist, v)
	for i := range eHist {
		if eHist[i] != rHist[i] {
			t.Fatalf("BytesByCount[%d]: exact %d, region %d", i, eHist[i], rHist[i])
		}
	}
}

// comparePageCounts fails unless got visits what want does, in order.
func comparePageCounts(t *testing.T, what string, want, got []pageCount) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: visited %d pages, want %d", what, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s[%d]: visited %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// syntheticView builds a standalone view of n base pages.
func syntheticView(n int) pages.View {
	return pages.View{
		Weight:    make([]float64, n),
		Tier:      make([]uint8, n),
		PageBytes: pages.BasePageBytes,
	}
}

// Worker count must never change results: the same stream at 1 and 7
// workers yields identical state and identical sharded-query output.
func TestRegionWorkerCountInvariance(t *testing.T) {
	a := NewRegionTracker(16, 16, nil)
	b := NewRegionTracker(16, 16, nil)
	a.SetWorkers(1)
	b.SetWorkers(7)
	driveTrackers(a, b, 23, 6000)

	if a.Total() != b.Total() || a.Tracked() != b.Tracked() || a.Cools() != b.Cools() {
		t.Fatalf("aggregates diverge: (%d,%d,%d) vs (%d,%d,%d)",
			a.Total(), a.Tracked(), a.Cools(), b.Total(), b.Tracked(), b.Cools())
	}
	aHot := a.AppendHot(nil, 1, nil, 0)
	bHot := b.AppendHot(nil, 1, nil, 0)
	if len(aHot) != len(bHot) {
		t.Fatalf("AppendHot lengths diverge: %d vs %d", len(aHot), len(bHot))
	}
	for i := range aHot {
		if aHot[i] != bHot[i] {
			t.Fatalf("AppendHot[%d]: %d vs %d", i, aHot[i], bHot[i])
		}
	}
	v := syntheticView(3000)
	ha := make([]int64, 6)
	hb := make([]int64, 6)
	a.BytesByCount(ha, v)
	b.BytesByCount(hb, v)
	for i := range ha {
		if ha[i] != hb[i] {
			t.Fatalf("BytesByCount[%d]: %d vs %d", i, ha[i], hb[i])
		}
	}
}

// Coarse regions smear heat over their pages but never emit page IDs
// beyond the highest ever touched — phantom IDs past the address
// space's slot arrays would crash the systems' keep callbacks.
func TestCoarseSmearingAndMaxIDClamp(t *testing.T) {
	r := NewRegionTracker(300, 64, nil)
	for i := 0; i < 100; i++ {
		r.Touch(10)
	}
	// 100 touches smeared over 64 pages: every page of the region
	// estimates 100/64 = 1, including pages never touched.
	if got := r.Count(5); got != 1 {
		t.Fatalf("smeared count(5) = %d, want 1", got)
	}
	if got := r.Count(10); got != 1 {
		t.Fatalf("smeared count(10) = %d, want 1", got)
	}
	counts := make([]uint32, 64)
	r.ReadCounts(0, counts)
	for id, c := range counts {
		want := uint32(0)
		if id <= 10 {
			want = 1
		}
		if c != want {
			t.Fatalf("ReadCounts: page %d reads %d, want %d (clamped at maxID 10)", id, c, want)
		}
	}
	if got := r.AppendHot(nil, 1, nil, 0); len(got) != 11 {
		t.Fatalf("AppendHot emitted %d ids, want 11", len(got))
	}
}

// With a real forecaster the tracker serves predictions after the first
// Cool: EWMA(0.5) over observations 16 then 8 predicts 12.
func TestForecastingServesPredictions(t *testing.T) {
	r := NewRegionTracker(1000, 4, EWMA{Alpha: 0.5})
	if r.Name() != "region/4+ewma(0.50)" {
		t.Fatalf("name = %q", r.Name())
	}
	for id := pages.PageID(0); id < 4; id++ {
		for i := 0; i < 8; i++ {
			r.Touch(id)
		}
	}
	// Raw counts are served until the forecaster is primed.
	if got := r.Count(0); got != 8 {
		t.Fatalf("pre-cool count = %d, want 8", got)
	}
	r.Cool() // observe 16, prime: predict 16 -> 4 per page
	if got := r.Count(0); got != 4 {
		t.Fatalf("count after first cool = %d, want 4", got)
	}
	r.Cool() // observe 8, blend: predict 12 -> 3 per page
	if got := r.Count(0); got != 3 {
		t.Fatalf("count after second cool = %d, want 3", got)
	}
	// The whole prediction mass is in this one region.
	if got := r.Probability(0); got != 0.25 {
		t.Fatalf("probability = %v, want 0.25", got)
	}
}

// Probability regression: a cell grown after a forecasting Cool serves
// raw counts (no forecast exists for it yet), but it must share a
// denominator with the forecast cells — before the fix the new cell
// divided by the decayed raw total while primed cells divided by the
// forecast total, so equal effective counts got unequal probabilities
// and the distribution summed past 1.
func TestProbabilityNormalizedAcrossForecastBoundary(t *testing.T) {
	r := NewRegionTracker(1000, 4, EWMA{Alpha: 0.5})
	for id := pages.PageID(0); id < 4; id++ {
		for i := 0; i < 8; i++ {
			r.Touch(id)
		}
	}
	r.Cool() // observe 16, prime: predict 16 over cell 0
	// Grow a brand-new cell past the forecast arrays: 16 raw touches
	// smeared over its 4 pages estimate 4 per page — the same effective
	// count the forecast serves for cell 0's pages (16/4).
	for i := 0; i < 16; i++ {
		r.Touch(100)
	}
	if got, want := r.Count(0), r.Count(100); got != want {
		t.Fatalf("effective counts diverge: count(0)=%d count(100)=%d", got, want)
	}
	p0, p100 := r.Probability(0), r.Probability(100)
	if p0 != p100 {
		t.Fatalf("equal effective counts, unequal probabilities: %v vs %v", p0, p100)
	}
	// Forecast mass 16 + raw mass 16 = 32; each regime's 4 pages hold
	// 4/32 each.
	if p0 != 0.125 {
		t.Fatalf("probability = %v, want 0.125", p0)
	}
	sum := 0.0
	for id := pages.PageID(0); id <= r.maxID; id++ {
		sum += r.Probability(id)
	}
	if sum > 1+1e-9 {
		t.Fatalf("distribution sums to %v > 1", sum)
	}
	// The next Cool extends the forecast over the new cell and resets
	// the raw remainder.
	r.Cool()
	if r.fextra != 0 {
		t.Fatalf("fextra survived Cool: %d", r.fextra)
	}
	sum = 0
	for id := pages.PageID(0); id <= r.maxID; id++ {
		sum += r.Probability(id)
	}
	if sum > 1+1e-9 {
		t.Fatalf("post-cool distribution sums to %v > 1", sum)
	}
}

// referenceHottest is the pre-optimization ForEachHottest: materialize
// every page ID into per-count buckets. O(pages) memory — kept here only
// as the order oracle for the span-bucketed implementation.
func referenceHottest(r *RegionTracker, fn func(id pages.PageID, count uint32) (stop bool)) {
	maxCount := uint32(0)
	for b := range r.cells {
		refCellRuns(r, b, func(lo, hi pages.PageID, per uint32) {
			if per > maxCount {
				maxCount = per
			}
		})
	}
	if maxCount == 0 {
		return
	}
	buckets := make([][]pages.PageID, maxCount+1)
	for b := range r.cells {
		refCellRuns(r, b, func(lo, hi pages.PageID, per uint32) {
			for id := lo; id < hi; id++ {
				buckets[per] = append(buckets[per], id)
			}
		})
	}
	for c := int(maxCount); c >= 1; c-- {
		for _, id := range buckets[c] {
			if fn(id, uint32(c)) {
				return
			}
		}
	}
}

// The span-bucketed ForEachHottest must visit exactly what the per-ID
// materialization visited, in the same order, at several granularities
// and stop points — including a forecasting tracker, whose runs serve
// predictions.
func TestForEachHottestSpanBucketsMatchReference(t *testing.T) {
	build := func(g int, f Forecaster) *RegionTracker {
		r := NewRegionTracker(16, g, f)
		rng := stats.NewRNG(31)
		const space = 4096
		for i := 0; i < 9000; i++ {
			var id pages.PageID
			if rng.Intn(10) < 6 {
				id = pages.PageID(rng.Intn(96))
			} else {
				id = pages.PageID(rng.Intn(space))
			}
			r.Touch(id)
			if i%700 == 699 {
				r.Cool()
			}
		}
		return r
	}
	for _, tc := range []struct {
		name string
		g    int
		f    Forecaster
	}{
		{"g1", 1, nil},
		{"g16", 16, nil},
		{"g64+ewma", 64, EWMA{Alpha: 0.5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := build(tc.g, tc.f)
			for _, stopAt := range []int{0, 1, 137, 1 << 30} {
				var want, got []pageCount
				referenceHottest(r, func(id pages.PageID, c uint32) bool {
					want = append(want, pageCount{id, c})
					return len(want) >= stopAt
				})
				r.ForEachHottest(func(id pages.PageID, c uint32) bool {
					got = append(got, pageCount{id, c})
					return len(got) >= stopAt
				})
				comparePageCounts(t, "ForEachHottest", want, got)
			}
		})
	}
}

// refCellRuns is the callback form of the tracker's run walk that the
// bulk queries used before run replaced it: it calls fn for each
// maximal run [lo, hi) of pages in cell b with uniform nonzero
// estimated count, ascending, clamped to the highest page ID ever
// touched. It and the ref* queries below keep those queries' bodies as
// the oracle TestRegionBulkQueriesMatchReference checks run against.
func refCellRuns(r *RegionTracker, b int, fn func(lo, hi pages.PageID, per uint32)) {
	base := b << r.logG
	limit := int(r.maxID) + 1
	if base >= limit {
		return
	}
	emit := func(off, size int, per uint32) {
		if per == 0 {
			return
		}
		lo, hi := base+off, base+off+size
		if hi > limit {
			hi = limit
		}
		if lo < hi {
			fn(pages.PageID(lo), pages.PageID(hi), per)
		}
	}
	if r.predicted(b) {
		emit(0, r.g, uint32(r.fpred[b]/float64(r.g)))
		return
	}
	c := &r.cells[b]
	if c.sub == nil {
		emit(0, r.g, c.count/uint32(r.g))
		return
	}
	for _, lf := range c.sub {
		emit(int(lf.off), int(lf.size), lf.count/uint32(lf.size))
	}
}

func refForEach(r *RegionTracker, fn func(id pages.PageID, count uint32)) {
	for b := range r.cells {
		refCellRuns(r, b, func(lo, hi pages.PageID, per uint32) {
			for id := lo; id < hi; id++ {
				fn(id, per)
			}
		})
	}
}

func refForEachHottest(r *RegionTracker, fn func(id pages.PageID, count uint32) (stop bool)) {
	maxCount := uint32(0)
	for b := range r.cells {
		refCellRuns(r, b, func(lo, hi pages.PageID, per uint32) {
			if per > maxCount {
				maxCount = per
			}
		})
	}
	if maxCount == 0 {
		return
	}
	buckets := make([][]span, maxCount+1)
	for b := range r.cells {
		refCellRuns(r, b, func(lo, hi pages.PageID, per uint32) {
			buckets[per] = append(buckets[per], span{lo: lo, hi: hi})
		})
	}
	for c := int(maxCount); c >= 1; c-- {
		for _, sp := range buckets[c] {
			for id := sp.lo; id < sp.hi; id++ {
				if fn(id, uint32(c)) {
					return
				}
			}
		}
	}
}

func refAppendHot(r *RegionTracker, dst []pages.PageID, threshold uint32, keep func(id pages.PageID) bool, max int) []pages.PageID {
	if threshold < 1 {
		threshold = 1
	}
	var shardIDs [shard.DefaultShards][]pages.PageID
	plan := shard.NewPlan(len(r.cells))
	shard.Run(r.workers, plan.Shards, func(s int) {
		lo, hi := plan.Range(s)
		var buf []pages.PageID
		for b := lo; b < hi && (max <= 0 || len(buf) < max); b++ {
			refCellRuns(r, b, func(plo, phi pages.PageID, per uint32) {
				if per < threshold {
					return
				}
				for id := plo; id < phi; id++ {
					if max > 0 && len(buf) >= max {
						return
					}
					if keep != nil && !keep(id) {
						continue
					}
					buf = append(buf, id)
				}
			})
		}
		shardIDs[s] = buf
	})
	for s := 0; s < plan.Shards; s++ {
		take := shardIDs[s]
		if max > 0 && len(dst)+len(take) > max {
			take = take[:max-len(dst)]
		}
		dst = append(dst, take...)
		if max > 0 && len(dst) >= max {
			break
		}
	}
	return dst
}

func refBytesByCount(r *RegionTracker, hist []int64, v pages.View) {
	for i := range hist {
		hist[i] = 0
	}
	if len(hist) == 0 {
		return
	}
	var shardHist [shard.DefaultShards][]int64
	plan := shard.NewPlan(len(r.cells))
	shard.Run(r.workers, plan.Shards, func(s int) {
		h := make([]int64, len(hist))
		lo, hi := plan.Range(s)
		for b := lo; b < hi; b++ {
			refCellRuns(r, b, func(plo, phi pages.PageID, per uint32) {
				bkt := int(per)
				if bkt >= len(hist) {
					bkt = len(hist) - 1
				}
				h[bkt] += int64(phi-plo) * v.PageBytes
			})
		}
		shardHist[s] = h
	})
	for s := 0; s < plan.Shards; s++ {
		for c := 1; c < len(hist); c++ {
			hist[c] += shardHist[s][c]
		}
	}
}

// referenceTracker drives a region tracker through touches over
// [0, top): 30% on a hot head of 96 pages, 50% on a hot tail of 64 that
// ends at top-1, the rest uniform, cooled every 2,500 touches. The hot
// tail keeps heat on the last cell's pages past top-1, which the maxID
// clamp must cut.
func referenceTracker(r *RegionTracker, seed uint64, top, touches int) {
	rng := stats.NewRNG(seed)
	for i := 0; i < touches; i++ {
		var id pages.PageID
		switch k := rng.Intn(10); {
		case k < 3:
			id = pages.PageID(rng.Intn(96))
		case k < 8:
			id = pages.PageID(top - 1 - rng.Intn(64))
		default:
			id = pages.PageID(rng.Intn(top))
		}
		r.Touch(id)
		if i%2500 == 2499 {
			r.Cool()
		}
	}
}

// Every bulk query walks cells through next; each must return exactly
// what its earlier callback-based body (the ref* oracles) returns, at
// every worker count. The trackers cover granularities 1 to 1024, the
// pass-through and a chained forecaster, a last cell the maxID clamp
// cuts short, and, after the final phase, cells grown since the last
// Cool that serve raw counts beside forecast ones.
func TestRegionBulkQueriesMatchReference(t *testing.T) {
	chain, err := ParseForecaster("trend>ewma")
	if err != nil {
		t.Fatal(err)
	}
	v := syntheticView(4096)
	for id := range v.Tier {
		v.Tier[id] = uint8(id / 5 % 2)
	}
	alt := func(id pages.PageID) bool { return v.Tier[id] == 1 }
	for _, g := range []int{1, 4, 64, 1024} {
		for _, f := range []Forecaster{nil, chain} {
			r := NewRegionTracker(16, g, f)
			// Phase 1 ends in a Cool, so with a forecaster every cell is
			// forecast; phase 2 grows the cell array past the forecast.
			for phase, p := range []struct{ top, touches int }{{1498, 12_500}, {3002, 12_000}} {
				referenceTracker(r, uint64(g+phase), p.top, p.touches)
				if g > 1 && r.Count(r.maxID+1) == 0 {
					t.Fatalf("%s: no heat past maxID %d; the clamp goes untested", r.Name(), r.maxID)
				}
				name := r.Name()
				// dense is refForEach expanded over every page the cells
				// span: zero where it visits nothing.
				space := len(r.cells) << r.logG
				dense := make([]uint32, space)
				heated := false
				refForEach(r, func(id pages.PageID, c uint32) { dense[id], heated = c, true })
				if !heated {
					t.Fatalf("%s: tracker reports no heat", name)
				}
				for _, w := range []int{1, 2, 4, 7} {
					r.SetWorkers(w)
					// maxID+2 starts inside a leaf the maxID clamp ends before it.
					for _, lo := range []int{0, 1, g - 1, g + 3, int(r.maxID), int(r.maxID) + 1, int(r.maxID) + 2, space + 5} {
						for _, n := range []int{1, 7, 256, space} {
							got := make([]uint32, n)
							for i := range got {
								got[i] = 0xdead // ReadCounts must write every entry
							}
							r.ReadCounts(pages.PageID(lo), got)
							for i, c := range got {
								want := uint32(0)
								if lo+i < space {
									want = dense[lo+i]
								}
								if c != want {
									t.Fatalf("%s W=%d: ReadCounts(%d, %d pages)[%d] = %d, want %d", name, w, lo, n, i, c, want)
								}
							}
						}
					}
					var want, got []pageCount
					for _, stopAt := range []int{1, 137, 1 << 30} {
						want, got = want[:0], got[:0]
						refForEachHottest(r, func(id pages.PageID, c uint32) bool {
							want = append(want, pageCount{id, c})
							return len(want) >= stopAt
						})
						r.ForEachHottest(func(id pages.PageID, c uint32) bool {
							got = append(got, pageCount{id, c})
							return len(got) >= stopAt
						})
						comparePageCounts(t, name+" ForEachHottest", want, got)
					}
					for _, n := range []int{1, 3, 257} {
						wantH, gotH := make([]int64, n), make([]int64, n)
						refBytesByCount(r, wantH, v)
						r.BytesByCount(gotH, v)
						for c := range wantH {
							if wantH[c] != gotH[c] {
								t.Fatalf("%s W=%d: BytesByCount(%d buckets)[%d] = %d, want %d", name, w, n, c, gotH[c], wantH[c])
							}
						}
					}
					for _, threshold := range []uint32{1, 2, 5} {
						for _, keep := range []func(pages.PageID) bool{nil, alt} {
							for _, max := range []int{0, 1, 7, 4096} {
								wantIDs := refAppendHot(r, nil, threshold, keep, max)
								gotIDs := r.AppendHot(nil, threshold, keep, max)
								if len(wantIDs) != len(gotIDs) {
									t.Fatalf("%s W=%d: AppendHot(%d, keep %v, %d) = %d ids, want %d",
										name, w, threshold, keep != nil, max, len(gotIDs), len(wantIDs))
								}
								for i := range wantIDs {
									if wantIDs[i] != gotIDs[i] {
										t.Fatalf("%s W=%d: AppendHot(%d, keep %v, %d)[%d] = %d, want %d",
											name, w, threshold, keep != nil, max, i, gotIDs[i], wantIDs[i])
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// The footprint must scale with regions, not pages: granularity 1024
// over a wide sparse space stays orders of magnitude under the exact
// tracker's 4 bytes/page.
func TestFootprintScalesWithRegions(t *testing.T) {
	exact := access.NewFreqTracker(16)
	region := NewRegionTracker(16, 1024, nil)
	const top = 1 << 22 // 4M pages
	for id := pages.PageID(0); id < top; id += 4096 {
		exact.Touch(id)
		region.Touch(id)
	}
	e, r := exact.MemoryFootprintBytes(), region.MemoryFootprintBytes()
	if r*10 > e {
		t.Fatalf("region footprint %d not well under exact %d", r, e)
	}
}
