package heat

import (
	"fmt"
	"math/bits"
	"sort"

	"colloid/internal/pages"
	"colloid/internal/shard"
)

// leaf is one contiguous power-of-two page range inside a cell's buddy
// subdivision: [off, off+size) cell-relative, holding the range's
// aggregate count. Leaves are kept sorted by off and tile the cell
// exactly.
type leaf struct {
	off   int32
	size  int32
	count uint32
}

// cell is one base region of g pages. Most cells stay unsplit (sub ==
// nil) with a single aggregate count; cells whose heat diverges refine
// into a flattened buddy tree of leaves. count is always the cell's
// total, split or not.
type cell struct {
	count uint32
	sub   []leaf
}

// RegionTracker estimates page heat at region granularity, the way
// memtierd's heatmap and DAMON's adaptive regions do: touches aggregate
// into base cells of g pages (g a power of two), a cell splits along
// the touched path when its heat crosses the divergence trigger, and
// buddies merge back as they cool. Per-page queries smear a leaf's
// count uniformly over its pages (count/size, integer), which is the
// fidelity loss the heat ablation measures; storage is
// O(cells + split leaves) instead of O(pages), which is the scale win.
//
// Determinism: Touch is serial; Cool, AppendHot and
// BytesByCount shard over the cell array with per-shard partials
// reduced in shard index order. The cell array uses FreqTracker's exact
// growth rule, so at g=1 every plan, range and reduce matches the exact
// tracker and the two are bit-identical (with the pass-through
// forecaster).
//
// Split rule: a leaf of size s splits when its count reaches
// coolThreshold*s/2, the touched half taking the rounding-up share, so
// counts are conserved exactly and a sustained hot spot refines to
// single pages in O(log g) splits. Because splitting fires at half the
// cooling budget, only size-1 leaves can reach count >= coolThreshold,
// which keeps the cooling trigger identical to the exact tracker's.
// Merge rule (during Cool, after halving): adjacent buddies re-join
// while their combined count stays below the merged node's own split
// trigger, so a merged region never immediately re-splits.
//
// With a non-passthrough Forecaster, each Cool also feeds every cell's
// decayed total through the forecaster chain (per-cell state, sharded,
// float partials reduced in shard index order); Count/Probability then
// report the forecast smeared over the cell until the next Cool. Before
// the first Cool the raw counts are served.
type RegionTracker struct {
	coolThreshold uint32
	g             int
	logG          int
	f             Forecaster
	forecasting   bool
	name          string

	cells   []cell
	total   uint64
	tracked int
	cools   int
	workers int
	// maxID is the highest page ID ever touched. Region expansion stops
	// there: a coarse leaf can span IDs beyond the address space's last
	// page, and emitting those would index past the per-page arrays
	// downstream.
	maxID pages.PageID

	// Per-cell forecaster state/prediction, refreshed at Cool.
	fstate  []float64
	fpred   []float64
	ftotal  float64
	fprimed bool
	// fextra is the raw count resting in cells grown after the last
	// forecasting Cool (b >= len(fpred)). Those cells have no forecast
	// yet and serve raw counts, so Probability folds fextra into the
	// forecast denominator to keep the two regimes on one scale (the
	// distribution sums to <= 1). Reset by the next Cool, which extends
	// the forecast over every cell.
	fextra uint64

	// Per-shard scratch for the sharded bulk queries.
	shardIDs  [shard.DefaultShards][]pages.PageID
	shardHist [shard.DefaultShards][]int64
}

// NewRegionTracker returns a tracker with base regions of regionPages
// pages (a power of two in [1, MaxRegionPages]), cooling at
// coolThreshold like the exact tracker, forecasting with f (nil means
// Passthrough).
func NewRegionTracker(coolThreshold uint32, regionPages int, f Forecaster) *RegionTracker {
	if coolThreshold < 2 {
		panic("heat: cooling threshold must be at least 2")
	}
	if regionPages < 1 || regionPages > MaxRegionPages || regionPages&(regionPages-1) != 0 {
		panic(fmt.Sprintf("heat: region granularity %d pages must be a power of two in [1, %d]", regionPages, MaxRegionPages))
	}
	if f == nil {
		f = Passthrough{}
	}
	_, isPass := f.(Passthrough)
	logG := 0
	for 1<<logG < regionPages {
		logG++
	}
	name := fmt.Sprintf("region/%d", regionPages)
	if !isPass {
		name += "+" + f.Name()
	}
	return &RegionTracker{
		coolThreshold: coolThreshold,
		g:             regionPages,
		logG:          logG,
		f:             f,
		forecasting:   !isPass,
		name:          name,
		workers:       1,
		maxID:         pages.NoPage,
	}
}

// Name implements Tracker.
func (r *RegionTracker) Name() string { return r.name }

// SetWorkers implements Tracker.
func (r *RegionTracker) SetWorkers(w int) {
	if w < 1 {
		w = 1
	}
	r.workers = w
}

// splitAt is the divergence trigger for a leaf of size s: half the
// size-scaled cooling budget.
func (r *RegionTracker) splitAt(s int) uint64 {
	return uint64(r.coolThreshold) * uint64(s) / 2
}

// coolAt is the size-scaled cooling trigger; the split rule makes it
// reachable only at s == 1, where it equals the exact tracker's.
func (r *RegionTracker) coolAt(s int) uint64 {
	return uint64(r.coolThreshold) * uint64(s)
}

// findLeaf returns the index of the leaf containing cell-relative off.
func findLeaf(sub []leaf, off int) int {
	return sort.Search(len(sub), func(i int) bool {
		return int(sub[i].off)+int(sub[i].size) > off
	})
}

// perPage is the leaf's count smeared over its pages: a shift, since
// leaf sizes are powers of two.
func (lf leaf) perPage() uint32 {
	return lf.count >> bits.TrailingZeros32(uint32(lf.size))
}

// Touch implements Tracker: the cell array grows exactly like the
// exact tracker's count array, the containing leaf's count rises by
// one, a leaf crossing its divergence trigger splits along the touched
// path, and a size-1 leaf crossing the cooling threshold cools the
// whole tracker. The count it returns comes from the leaf it just
// updated; only after a cooling pass, or in a cell that serves a
// forecast, does it look the page up again.
func (r *RegionTracker) Touch(id pages.PageID) uint32 {
	if id < 0 {
		panic(fmt.Sprintf("heat: Touch of invalid page id %d", id))
	}
	b := int(id) >> r.logG
	if b >= len(r.cells) {
		n := b + 1
		if n < 2*len(r.cells) {
			n = 2 * len(r.cells)
		}
		grown := make([]cell, n)
		copy(grown, r.cells)
		r.cells = grown
	}
	if id > r.maxID {
		r.maxID = id
	}
	r.total++
	if r.fprimed && b >= len(r.fpred) {
		r.fextra++
	}
	c := &r.cells[b]
	if c.sub == nil {
		old := c.count
		c.count++
		if old == uint32(r.g)-1 {
			r.tracked += r.g
		}
		if r.g > 1 && uint64(c.count) >= r.splitAt(r.g) {
			c.sub = append(c.sub, leaf{off: 0, size: int32(r.g), count: c.count})
			return r.cascade(c, 0, id)
		}
		if uint64(c.count) >= r.coolAt(r.g) {
			r.Cool()
			return r.Count(id)
		}
		return r.served(b, id, c.count>>uint(r.logG))
	}
	li := findLeaf(c.sub, int(id)&(r.g-1))
	lf := &c.sub[li]
	old := lf.count
	lf.count++
	c.count++
	if old == uint32(lf.size)-1 {
		r.tracked += int(lf.size)
	}
	if int(lf.size) > 1 && uint64(lf.count) >= r.splitAt(int(lf.size)) {
		return r.cascade(c, li, id)
	}
	if uint64(lf.count) >= r.coolAt(int(lf.size)) {
		r.Cool()
		return r.Count(id)
	}
	return r.served(b, id, lf.perPage())
}

// served returns per, the per-page count of the leaf a touch of id
// just updated, unless id's cell b serves a forecast instead.
func (r *RegionTracker) served(b int, id pages.PageID, per uint32) uint32 {
	if r.predicted(b) {
		return r.Count(id)
	}
	return per
}

// cascade refines the leaf at index li along the touched page id:
// while the leaf exceeds its divergence trigger it splits in half, the
// touched half taking the rounding-up share (counts conserved exactly),
// and refinement follows the touched path only — O(log g) leaves per
// touch. Both halves of a splitting leaf keep count >= size (the
// trigger guarantees it with coolThreshold >= 2), so the tracked total
// is unchanged by splits. It returns the touched page's count, as
// Touch does.
func (r *RegionTracker) cascade(c *cell, li int, id pages.PageID) uint32 {
	off := int(id) & (r.g - 1)
	for {
		lf := c.sub[li]
		if lf.size <= 1 || uint64(lf.count) < r.splitAt(int(lf.size)) {
			if uint64(lf.count) >= r.coolAt(int(lf.size)) {
				r.Cool()
				return r.Count(id)
			}
			return r.served(int(id)>>r.logG, id, lf.perPage())
		}
		half := lf.size / 2
		far := lf.count / 2
		near := lf.count - far
		lowCnt, highCnt := near, far
		touchedHigh := off >= int(lf.off)+int(half)
		if touchedHigh {
			lowCnt, highCnt = far, near
		}
		c.sub = append(c.sub, leaf{})
		copy(c.sub[li+2:], c.sub[li+1:])
		c.sub[li] = leaf{off: lf.off, size: half, count: lowCnt}
		c.sub[li+1] = leaf{off: lf.off + half, size: half, count: highCnt}
		if touchedHigh {
			li++
		}
	}
}

// Cool implements Tracker: every count halves, cooled buddies merge
// back, and the per-shard totals/tracked partials (plus forecast float
// partials when forecasting) reduce in shard index order — bit-identical
// at any worker count, and identical to the exact tracker's Cool at
// g=1.
func (r *RegionTracker) Cool() {
	plan := shard.NewPlan(len(r.cells))
	if r.forecasting {
		sl := r.f.StateLen()
		if need := len(r.cells) * sl; len(r.fstate) < need {
			grown := make([]float64, need)
			copy(grown, r.fstate)
			r.fstate = grown
		}
		if len(r.fpred) < len(r.cells) {
			grown := make([]float64, len(r.cells))
			copy(grown, r.fpred)
			r.fpred = grown
		}
	}
	var totals [shard.DefaultShards]uint64
	var trackedP [shard.DefaultShards]int
	var ftotals [shard.DefaultShards]float64
	shard.Run(r.workers, plan.Shards, func(s int) {
		lo, hi := plan.Range(s)
		var tot uint64
		tr := 0
		var ft float64
		for b := lo; b < hi; b++ {
			c := &r.cells[b]
			if c.sub == nil {
				c.count /= 2
				if c.count >= uint32(r.g) {
					tr += r.g
				}
			} else {
				// Halve every leaf, then collapse cooled buddies with a
				// stack pass: adjacent aligned siblings re-join while
				// their sum stays below the merged node's split trigger.
				out := c.sub[:0]
				for _, lf := range c.sub {
					lf.count /= 2
					out = append(out, lf)
					for len(out) >= 2 {
						a := out[len(out)-2]
						bd := out[len(out)-1]
						if a.size != bd.size || a.off&(2*a.size-1) != 0 ||
							a.off+a.size != bd.off ||
							uint64(a.count)+uint64(bd.count) >= r.splitAt(2*int(a.size)) {
							break
						}
						out = out[:len(out)-1]
						out[len(out)-1] = leaf{off: a.off, size: 2 * a.size, count: a.count + bd.count}
					}
				}
				if len(out) == 1 && int(out[0].size) == r.g {
					c.count = out[0].count
					c.sub = nil
					if c.count >= uint32(r.g) {
						tr += r.g
					}
				} else {
					c.sub = out
					var cc uint32
					for _, lf := range out {
						cc += lf.count
						if lf.count >= uint32(lf.size) {
							tr += int(lf.size)
						}
					}
					c.count = cc
				}
			}
			tot += uint64(c.count)
			if r.forecasting {
				sl := r.f.StateLen()
				pred := r.f.Forecast(r.fstate[b*sl:(b+1)*sl], float64(c.count))
				if pred < 0 {
					pred = 0
				}
				r.fpred[b] = pred
				ft += pred
			}
		}
		totals[s] = tot
		trackedP[s] = tr
		ftotals[s] = ft
	})
	var total uint64
	tr := 0
	var ft float64
	for s := 0; s < plan.Shards; s++ {
		total += totals[s]
		tr += trackedP[s]
		ft += ftotals[s]
	}
	r.total = total
	r.tracked = tr
	r.cools++
	if r.forecasting {
		r.ftotal = ft
		r.fprimed = true
		r.fextra = 0
	}
}

// predicted reports whether cell b serves forecast output.
func (r *RegionTracker) predicted(b int) bool {
	return r.fprimed && b < len(r.fpred)
}

// Count implements Tracker: the containing leaf's count smeared
// uniformly over its pages (the forecast smeared over the cell once
// primed).
func (r *RegionTracker) Count(id pages.PageID) uint32 {
	if id < 0 {
		return 0
	}
	b := int(id) >> r.logG
	if b >= len(r.cells) {
		return 0
	}
	if r.predicted(b) {
		return uint32(r.fpred[b] / float64(r.g))
	}
	c := &r.cells[b]
	if c.sub == nil {
		return c.count / uint32(r.g)
	}
	lf := c.sub[findLeaf(c.sub, int(id)&(r.g-1))]
	return lf.count / uint32(lf.size)
}

// Probability implements Tracker. Once a forecast is primed, every
// cell — forecast cells and cells grown after the last Cool alike —
// divides by the same total (ftotal plus the raw count resting in the
// unforecast cells), so the two regimes are comparable and the
// distribution sums to at most 1.
func (r *RegionTracker) Probability(id pages.PageID) float64 {
	if id < 0 {
		return 0
	}
	b := int(id) >> r.logG
	if r.fprimed {
		denom := r.ftotal + float64(r.fextra)
		if denom <= 0 {
			return 0
		}
		if b < len(r.cells) && r.predicted(b) {
			return (r.fpred[b] / float64(r.g)) / denom
		}
		return float64(r.Count(id)) / denom
	}
	if r.total == 0 {
		return 0
	}
	return float64(r.Count(id)) / float64(r.total)
}

// Total implements Tracker (the raw decayed count total, forecast or
// not).
func (r *RegionTracker) Total() uint64 { return r.total }

// Tracked implements Tracker: the number of pages whose estimated count
// is nonzero — the sum of leaf sizes with count >= size. Coarse leaves
// count every page they span, including pages never individually
// touched; that overcount is part of the fidelity loss being measured.
func (r *RegionTracker) Tracked() int { return r.tracked }

// Cools implements Tracker.
func (r *RegionTracker) Cools() int { return r.cools }

// cellRuns calls fn for each maximal run [lo, hi) of pages in cell b
// with uniform nonzero estimated count, ascending, clamped to the
// highest page ID ever touched so no phantom ID beyond the address
// space's last page is ever emitted.
func (r *RegionTracker) cellRuns(b int, fn func(lo, hi pages.PageID, per uint32)) {
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

// ForEach implements Tracker.
func (r *RegionTracker) ForEach(fn func(id pages.PageID, count uint32)) {
	for b := range r.cells {
		r.cellRuns(b, func(lo, hi pages.PageID, per uint32) {
			for id := lo; id < hi; id++ {
				fn(id, per)
			}
		})
	}
}

// span is one uniform-count page run [lo, hi), the unit ForEachHottest
// buckets by so its memory tracks runs, not pages.
type span struct {
	lo, hi pages.PageID
}

// ForEachHottest implements Tracker via the same bounded counting sort
// the exact tracker uses, over estimated per-page counts — but bucketing
// the uniform-count runs cellRuns emits rather than their individual
// page IDs, and expanding a run only when its count comes up. Memory is
// O(runs + maxCount) instead of O(pages), which is what keeps the call
// viable at the 10^8-page cluster scale the region tracker exists for.
// Runs arrive in ascending page-ID order, so expansion preserves the
// ID-ascending-within-a-count visit order.
func (r *RegionTracker) ForEachHottest(fn func(id pages.PageID, count uint32) (stop bool)) {
	maxCount := uint32(0)
	for b := range r.cells {
		r.cellRuns(b, func(lo, hi pages.PageID, per uint32) {
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
		r.cellRuns(b, func(lo, hi pages.PageID, per uint32) {
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

// AppendHot implements Tracker: the scan shards over the cell array
// with per-shard buffers capped at max, concatenated in shard index
// order and truncated — at g=1 the plan, ranges and result bytes match
// the exact tracker's.
func (r *RegionTracker) AppendHot(dst []pages.PageID, threshold uint32, keep func(id pages.PageID) bool, max int) []pages.PageID {
	if threshold < 1 {
		threshold = 1
	}
	plan := shard.NewPlan(len(r.cells))
	shard.Run(r.workers, plan.Shards, func(s int) {
		lo, hi := plan.Range(s)
		buf := r.shardIDs[s][:0]
		for b := lo; b < hi && (max <= 0 || len(buf) < max); b++ {
			r.cellRuns(b, func(plo, phi pages.PageID, per uint32) {
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
		r.shardIDs[s] = buf
	})
	for s := 0; s < plan.Shards; s++ {
		take := r.shardIDs[s]
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

// BytesByCount implements Tracker: each uniform-count run adds its page
// count times the page size, and the maxID clamp in cellRuns keeps
// every run inside the address space.
func (r *RegionTracker) BytesByCount(hist []int64, v pages.View) {
	for i := range hist {
		hist[i] = 0
	}
	if len(hist) == 0 {
		return
	}
	plan := shard.NewPlan(len(r.cells))
	shard.Run(r.workers, plan.Shards, func(s int) {
		h := r.shardHist[s]
		if cap(h) < len(hist) {
			h = make([]int64, len(hist))
			r.shardHist[s] = h
		}
		h = h[:len(hist)]
		for i := range h {
			h[i] = 0
		}
		lo, hi := plan.Range(s)
		for b := lo; b < hi; b++ {
			r.cellRuns(b, func(plo, phi pages.PageID, per uint32) {
				bkt := int(per)
				if bkt >= len(hist) {
					bkt = len(hist) - 1
				}
				h[bkt] += int64(phi-plo) * v.PageBytes
			})
		}
	})
	for s := 0; s < plan.Shards; s++ {
		h := r.shardHist[s]
		if len(h) < len(hist) {
			continue
		}
		for c := 1; c < len(hist); c++ {
			hist[c] += h[c]
		}
	}
}

// MemoryFootprintBytes implements Tracker: the cell array plus split
// leaves plus forecaster state. At g=1 this is deliberately heavier
// than the exact tracker's 4 bytes/page — granularity 1 is the
// fidelity anchor, not the scale point; the win arrives as g grows
// (g=64 is ~8x lighter than exact, g=1024 ~128x).
func (r *RegionTracker) MemoryFootprintBytes() int64 {
	const cellBytes = 32 // count + padding + leaf-slice header
	const leafBytes = 12
	n := int64(cap(r.cells)) * cellBytes
	for i := range r.cells {
		n += int64(cap(r.cells[i].sub)) * leafBytes
	}
	return n + int64(cap(r.fstate)+cap(r.fpred))*8
}
