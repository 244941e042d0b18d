// Package access provides the access-tracking mechanisms the tiering
// systems build on: a weighted page sampler standing in for PEBS (the
// PMU samples memory accesses in proportion to their true rates), a
// frequency tracker with HeMem-style cooling, and a page-table
// scan / hint-fault model for TPP.
//
// The two page-count hot paths here — the sampler's CDF rebuild and
// the tracker's cooling pass — shard by contiguous range over a fixed
// shard count (shard.DefaultShards) with partials reduced in shard
// index order, so their results are identical at every worker count.
// The sampler's CDF has one entry per page, a weightless page repeating
// the entry before it, so a draw's index is its page ID. A serial clamp
// at the shard seams gives a shard's leading weightless pages the
// previous shard's last sum and keeps the CDF non-decreasing, and a
// guide table of one bucket per weighted page lets each draw scan one
// bucket, usually empty, instead of searching the whole CDF: 12 bytes
// per weighted page and 8 per weightless one. SampleN, which each
// system calls once a quantum, resolves its draws a chunk at a time in
// two passes: the first loads every draw's guide pair, the second scans
// the buckets. The first pass has no branch on a loaded value, which
// could mispredict and discard the loads after it, so the chunk's cache
// misses overlap instead of being paid one draw at a time.
package access

import (
	"fmt"

	"colloid/internal/obs"
	"colloid/internal/pages"
	"colloid/internal/shard"
	"colloid/internal/stats"
)

// Sampler draws page IDs distributed according to the address space's
// true page weights — exactly what PEBS sampling of memory accesses
// observes. The cumulative distribution is cached and rebuilt only when
// the weight distribution changes (AddressSpace.Version).
//
// cum has one entry per page, indexed by page ID. A weightless page's
// entry repeats the one before it, so no draw lands on it and a draw's
// CDF index is its page. The rebuild walks every page, so it runs in
// three sharded passes: per-shard weighted-page counts, weight totals
// and first and last weighted index, a serial ordered reduce into
// per-shard starting sums, then a parallel fill of cum. The prefix sums
// seed from the reduced sums in shard index order, making the CDF bytes
// independent of the worker count.
//
// A shard's seed is a reduced total, which can round a few ULP either
// side of the previous shard's last running sum. A serial seam clamp
// sets the shard's leading weightless entries to that sum, so they own
// no interval when the seed rounded up, then raises the shard's leading
// entries below it to it, so cum never decreases.
//
// A draw finds its page through a guide table over cum (Chen and
// Asau's indexed search): k buckets of equal weight, one per weighted
// page, bucket(v) = int(v*k/total) capped at k-1, and guide[j] the
// first index, from the first weighted page on, whose entry falls in
// bucket j or later. A linear scan of the draw's bucket, usually empty,
// returns the page a binary search over the weighted pages' CDF would,
// so the sampled sequence is the one that search gives.
//
// Storage is 8 bytes of cum per page plus 4 bytes of guide per weighted
// page: 12 bytes per weighted page and 8 per weightless one. A CDF over
// weighted pages only needs a page ID per entry beside it, and with that
// array more buckets than n/8 cost heap without making the bisection of
// a bucket faster; dropping it pays for one bucket per page, which
// leaves about one entry to read per draw.
type Sampler struct {
	as      *pages.AddressSpace
	rng     *stats.RNG
	workers int
	version uint64
	built   bool
	cum     []float64 // indexed by page ID
	total   float64
	first   int     // first weighted page, len(cum) when there is none
	last    int     // last weighted page
	guide   []int32 // k+1 entries, guide[k] = len(cum); PageID is int32, so indices fit
	scale   float64 // k/total

	mSamples  *obs.Counter
	mRebuilds *obs.Counter
}

// NewSampler returns a sampler over as using rng.
func NewSampler(as *pages.AddressSpace, rng *stats.RNG) *Sampler {
	return &Sampler{as: as, rng: rng, workers: 1}
}

// SetObs installs the metrics registry (nil disables instrumentation).
func (s *Sampler) SetObs(r *obs.Registry) {
	s.mSamples = r.Counter("sampler_samples")
	s.mRebuilds = r.Counter("sampler_rebuilds")
}

// SetWorkers sets the fan-out for the CDF rebuild. Values below 1
// clamp to 1. Worker count never changes the sampled sequence.
func (s *Sampler) SetWorkers(w int) {
	if w < 1 {
		w = 1
	}
	s.workers = w
}

func (s *Sampler) rebuild() {
	s.mRebuilds.Inc()
	v := s.as.LiveView()
	n := len(v.Weight)
	plan := shard.NewPlan(n)
	// Pass 1: per-shard count of weighted pages, local weight total and
	// first and last weighted index (hi and -1 when there is none).
	var counts [shard.DefaultShards]int
	var totals [shard.DefaultShards]float64
	var firsts, lasts [shard.DefaultShards]int
	shard.Run(s.workers, plan.Shards, func(sh int) {
		lo, hi := plan.Range(sh)
		c := 0
		acc := 0.0
		first, last := hi, -1
		for i, w := range v.Weight[lo:hi] {
			if w > 0 {
				if c == 0 {
					first = lo + i
				}
				c++
				acc += w
				last = lo + i
			}
		}
		counts[sh] = c
		totals[sh] = acc
		firsts[sh], lasts[sh] = first, last
	})
	// Ordered reduce: per-shard starting prefix weight.
	var base [shard.DefaultShards]float64
	weighted := 0
	acc := 0.0
	s.first, s.last = n, -1
	for sh := 0; sh < plan.Shards; sh++ {
		base[sh] = acc
		acc += totals[sh]
		weighted += counts[sh]
		if counts[sh] > 0 {
			s.first = min(s.first, firsts[sh])
			s.last = lasts[sh]
		}
	}
	if cap(s.cum) < n {
		s.cum = make([]float64, n)
	}
	s.cum = s.cum[:n]
	// Pass 2: fill each shard's slice of the CDF from its own seed.
	shard.Run(s.workers, plan.Shards, func(sh int) {
		lo, hi := plan.Range(sh)
		cum := s.cum[lo:hi]
		acc := base[sh]
		for i, w := range v.Weight[lo:hi] {
			if w > 0 {
				acc += w
			}
			cum[i] = acc
		}
	})
	// Seam clamp: set each shard's leading weightless entries to the
	// entry before the shard, then raise its leading entries below that
	// entry to it. Serial and in shard order, so the result is the same
	// at every worker count.
	for sh := 1; sh < plan.Shards; sh++ {
		lo, hi := plan.Range(sh)
		if lo == 0 {
			continue
		}
		prev := s.cum[lo-1]
		i := lo
		for ; i < firsts[sh]; i++ {
			s.cum[i] = prev
		}
		for ; i < hi && s.cum[i] < prev; i++ {
			s.cum[i] = prev
		}
	}
	s.total = 0
	if n > 0 {
		s.total = s.cum[n-1]
	}
	s.fillGuide(weighted)
	s.version = s.as.Version()
	s.built = true
}

// fillGuide rebuilds the guide table of max(1, weighted) buckets over
// cum serially, reusing its storage. Walking cum backwards from the
// last page to the first weighted one, with one store per entry, leaves
// each bucket holding its first entry's index; a weightless entry
// shares its predecessor's value and bucket, so the predecessor
// overwrites it. An empty bucket still holds n. The backfill then walks
// the buckets down carrying the next bucket's value: a filled bucket's
// first entry lies below every entry of the buckets above it, so the
// smaller of the two is the bucket's own entry when it has one and the
// first entry above it when it is empty. Taking the minimum needs no
// branch, so the mix of empty and filled buckets a skewed distribution
// leaves costs no mispredictions.
func (s *Sampler) fillGuide(weighted int) {
	n := len(s.cum)
	k := max(1, weighted)
	if cap(s.guide) < k+1 {
		s.guide = make([]int32, k+1)
	}
	s.guide = s.guide[:k+1]
	s.scale = float64(k) / s.total
	for j := range s.guide {
		s.guide[j] = int32(n)
	}
	for i := n - 1; i >= s.first; i-- {
		s.guide[s.bucket(s.cum[i])] = int32(i)
	}
	next := int32(n)
	for j := k - 1; j >= 0; j-- {
		next = min(s.guide[j], next)
		s.guide[j] = next
	}
}

// bucket maps a CDF value to its guide bucket, int(v*k/total) capped
// at k-1; it is monotone in v. The comparison also sends an infinite
// product (k/total overflows when every weight is subnormal) to the
// last bucket, so the conversion to int only sees finite values.
func (s *Sampler) bucket(v float64) int {
	last := len(s.guide) - 2
	if f := v * s.scale; f < float64(last) {
		return int(f)
	}
	return last
}

// find returns the page a draw x in [0, total] selects: the first
// weighted page whose entry is at least x. Weighted entries before
// guide[j] lie in lower buckets than x's bucket j, so below x, and the
// entry at guide[j+1] lies in a higher one, so above x. The answer is
// therefore in [guide[j], guide[j+1]], and a scan that runs off the end
// of the bucket returns guide[j+1]; an empty bucket reads no entry.
func (s *Sampler) find(x float64) pages.PageID {
	j := s.bucket(x)
	return s.scan(x, int(s.guide[j]), int(s.guide[j+1]))
}

// scan returns the first index in [i, end] whose entry is at least x,
// end when none in [i, end) is. Every weightless entry past the first
// weighted page repeats its predecessor, so the scan stops at a
// weighted page. The last weighted page stands in should x exceed every
// entry.
func (s *Sampler) scan(x float64, i, end int) pages.PageID {
	for i < end && s.cum[i] < x {
		i++
	}
	if i >= len(s.cum) {
		i = s.last
	}
	return pages.PageID(i)
}

// ready rebuilds the CDF if the weights changed since the last build
// and reports whether any page has weight.
func (s *Sampler) ready() bool {
	if !s.built || s.version != s.as.Version() {
		s.rebuild()
	}
	return s.total > 0
}

// Sample returns one page drawn with probability proportional to its
// weight, or pages.NoPage if no page has weight. Its scan branches on
// the guide pair it has just loaded, so a loop of Sample calls waits
// out each draw's cache misses in turn; SampleN overlaps them.
func (s *Sampler) Sample() pages.PageID {
	s.mSamples.Inc()
	if !s.ready() {
		return pages.NoPage
	}
	return s.find(s.rng.Float64() * s.total)
}

// sampleChunk is how many draws SampleN resolves per pair of passes.
// Its scratch lives on the stack, 16 bytes a draw.
const sampleChunk = 128

// SampleN draws n pages with replacement, appending to dst exactly the
// pages n Sample calls would return, NoPage aside, in order and from the
// same RNG draws. It checks for a rebuild once, since nothing changes
// the weights between its draws, and appends nothing, consuming no
// draw, when no page has weight.
//
// The draws resolve sampleChunk at a time in two passes. Pass 1 draws
// each x, computes its bucket and loads its guide pair; pass 2 then
// scans cum over each bucket that holds entries. On a large space the
// guide loads miss the cache, and pass 1 keeps the whole chunk's misses
// in flight at once because it has no branch on a loaded value. No such
// branch may sit between one draw's guide load and the next draw's: the
// scan's branch waits on the pair just loaded and often mispredicts,
// and a misprediction discards every load issued after it, so a
// per-draw loop resolves one miss at a time.
func (s *Sampler) SampleN(dst []pages.PageID, n int) []pages.PageID {
	if n <= 0 {
		return dst
	}
	s.mSamples.Add(int64(n))
	if !s.ready() {
		return dst
	}
	var xs [sampleChunk]float64
	var lo, hi [sampleChunk]int32
	for done := 0; done < n; done += sampleChunk {
		m := min(sampleChunk, n-done)
		for k := 0; k < m; k++ {
			x := s.rng.Float64() * s.total
			j := s.bucket(x)
			xs[k], lo[k], hi[k] = x, s.guide[j], s.guide[j+1]
		}
		for k := 0; k < m; k++ {
			dst = append(dst, s.scan(xs[k], int(lo[k]), int(hi[k])))
		}
	}
	return dst
}

// FreqTracker maintains per-page access frequency counts with HeMem's
// cooling rule: when any page's count reaches CoolThreshold, every
// count is halved. Access probabilities are estimated as a page's
// count divided by the total count. Counts are stored densely, indexed
// by PageID, so the cooling pass and candidate scans are contiguous
// range sweeps that shard cleanly; the per-shard totals are exact
// integer sums, so the sharded cool is bit-identical to the serial one.
type FreqTracker struct {
	// CoolThreshold is HeMem's COOLING_THRESHOLD.
	CoolThreshold uint32

	counts  []uint32 // indexed by PageID; zero = untracked
	total   uint64
	tracked int
	cools   int
	workers int

	// Per-shard scratch for the sharded bulk queries, reused across
	// quanta to keep the hot loops allocation-free.
	shardIDs  [shard.DefaultShards][]pages.PageID
	shardHist [shard.DefaultShards][]int64
}

// Name identifies the tracker configuration.
func (f *FreqTracker) Name() string { return "exact" }

// NewFreqTracker returns a tracker with the given cooling threshold.
func NewFreqTracker(coolThreshold uint32) *FreqTracker {
	if coolThreshold < 2 {
		panic("access: cooling threshold must be at least 2")
	}
	return &FreqTracker{CoolThreshold: coolThreshold, workers: 1}
}

// SetWorkers sets the fan-out for the cooling pass. Values below 1
// clamp to 1. Worker count never changes counts or totals.
func (f *FreqTracker) SetWorkers(w int) {
	if w < 1 {
		w = 1
	}
	f.workers = w
}

// Touch records one sampled access to id, cools if the threshold is
// reached, and returns id's count after both, as Count(id) would.
func (f *FreqTracker) Touch(id pages.PageID) uint32 {
	if id < 0 {
		panic(fmt.Sprintf("access: Touch of invalid page id %d", id))
	}
	if int(id) >= len(f.counts) {
		n := int(id) + 1
		if n < 2*len(f.counts) {
			n = 2 * len(f.counts)
		}
		grown := make([]uint32, n)
		copy(grown, f.counts)
		f.counts = grown
	}
	c := f.counts[id] + 1
	if c == 1 {
		f.tracked++
	}
	f.counts[id] = c
	f.total++
	if c >= f.CoolThreshold {
		f.Cool()
		return f.counts[id]
	}
	return c
}

// Cool halves every count (dropping zeros), as HeMem does when a page
// hits the cooling threshold. The sweep shards by slot range; per-shard
// totals are integer sums reduced in shard index order, so the result
// is exactly the serial one at any worker count.
func (f *FreqTracker) Cool() {
	plan := shard.NewPlan(len(f.counts))
	var totals [shard.DefaultShards]uint64
	var dropped [shard.DefaultShards]int
	shard.Run(f.workers, plan.Shards, func(s int) {
		lo, hi := plan.Range(s)
		var tot uint64
		d := 0
		// No branch on the count: a zero stays zero and adds nothing,
		// and a one is the only count that halves to zero.
		counts := f.counts[lo:hi]
		for i, c := range counts {
			counts[i] = c >> 1
			tot += uint64(c >> 1)
			d += b2i(c == 1)
		}
		totals[s] = tot
		dropped[s] = d
	})
	var total uint64
	drop := 0
	for s := 0; s < plan.Shards; s++ {
		total += totals[s]
		drop += dropped[s]
	}
	f.total = total
	f.tracked -= drop
	f.cools++
}

// b2i is 1 for true and 0 for false; the compiler turns it into a flag
// set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Count returns the frequency count of id.
func (f *FreqTracker) Count(id pages.PageID) uint32 {
	if int(id) < 0 || int(id) >= len(f.counts) {
		return 0
	}
	return f.counts[id]
}

// Total returns the cumulative count across pages.
func (f *FreqTracker) Total() uint64 { return f.total }

// Cools returns how many cooling passes have run.
func (f *FreqTracker) Cools() int { return f.cools }

// Probability estimates the access probability of id: its count over
// the total count (0 when nothing has been sampled).
func (f *FreqTracker) Probability(id pages.PageID) float64 {
	if f.total == 0 {
		return 0
	}
	return float64(f.Count(id)) / float64(f.total)
}

// Tracked returns the number of pages with a nonzero count.
func (f *FreqTracker) Tracked() int { return f.tracked }

// ForEach visits every (page, count) pair with a nonzero count, in
// ascending page-ID order.
func (f *FreqTracker) ForEach(fn func(id pages.PageID, count uint32)) {
	for i, c := range f.counts {
		if c > 0 {
			fn(pages.PageID(i), c)
		}
	}
}

// ForEachHottest visits every (page, count) pair in descending count
// order (page-ID ascending within a count), via a counting sort over
// the bounded count domain — O(n) per call and deterministic. Policies
// that migrate "hottest pages first" under a rate limit use this so
// the limited budget lands on the pages that matter.
func (f *FreqTracker) ForEachHottest(fn func(id pages.PageID, count uint32) (stop bool)) {
	maxCount := uint32(0)
	for _, c := range f.counts {
		if c > maxCount {
			maxCount = c
		}
	}
	buckets := make([][]pages.PageID, maxCount+1)
	for i, c := range f.counts {
		if c > 0 {
			buckets[c] = append(buckets[c], pages.PageID(i))
		}
	}
	// The dense scan fills each bucket in ascending ID order already.
	for c := int(maxCount); c >= 1; c-- {
		for _, id := range buckets[c] {
			if fn(id, uint32(c)) {
				return
			}
		}
	}
}

// AppendHot appends, in ascending page-ID order, every page whose count
// is at least threshold (clamped up to 1) and for which keep (when
// non-nil) returns true, stopping at max when max is positive. The scan
// shards by slot range with per-shard buffers capped at max,
// concatenated in shard index order and truncated, so the result is the
// serial scan's first max hot IDs at any worker count.
func (f *FreqTracker) AppendHot(dst []pages.PageID, threshold uint32, keep func(id pages.PageID) bool, max int) []pages.PageID {
	if threshold < 1 {
		threshold = 1
	}
	plan := shard.NewPlan(len(f.counts))
	shard.Run(f.workers, plan.Shards, func(s int) {
		lo, hi := plan.Range(s)
		buf := f.shardIDs[s][:0]
		for i := lo; i < hi && (max <= 0 || len(buf) < max); i++ {
			if f.counts[i] < threshold {
				continue
			}
			id := pages.PageID(i)
			if keep != nil && !keep(id) {
				continue
			}
			buf = append(buf, id)
		}
		f.shardIDs[s] = buf
	})
	for s := 0; s < plan.Shards; s++ {
		take := f.shardIDs[s]
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

// BytesByCount fills hist with the bytes resting at each count
// (clamped to len(hist)-1) — the access histogram MEMTIS derives its
// dynamic hot threshold from. hist is zeroed first; untracked pages are
// skipped, so hist[0] stays zero. The per-shard histograms are integer
// sums reduced in shard index order.
func (f *FreqTracker) BytesByCount(hist []int64, v pages.View) {
	for i := range hist {
		hist[i] = 0
	}
	if len(hist) == 0 {
		return
	}
	plan := shard.NewPlan(len(f.counts))
	shard.Run(f.workers, plan.Shards, func(s int) {
		h := f.shardHist[s]
		if cap(h) < len(hist) {
			h = make([]int64, len(hist))
			f.shardHist[s] = h
		}
		h = h[:len(hist)]
		for i := range h {
			h[i] = 0
		}
		lo, hi := plan.Range(s)
		for i := lo; i < hi; i++ {
			c := f.counts[i]
			if c == 0 {
				continue
			}
			b := int(c)
			if b >= len(hist) {
				b = len(hist) - 1
			}
			h[b] += v.PageBytes
		}
	})
	for s := 0; s < plan.Shards; s++ {
		h := f.shardHist[s]
		if len(h) < len(hist) {
			continue
		}
		for c := 1; c < len(hist); c++ {
			hist[c] += h[c]
		}
	}
}

// MemoryFootprintBytes reports the dense count array's storage cost:
// four bytes per allocated slot, the O(pages) bill that caps exact
// tracking around 10^6 pages.
func (f *FreqTracker) MemoryFootprintBytes() int64 {
	return int64(cap(f.counts)) * 4
}
