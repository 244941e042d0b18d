// Package heat is the access-heat layer the tiering systems consume:
// a pluggable Tracker interface over page-touch streams, with two
// fidelity points — the exact per-page frequency counter
// (access.FreqTracker) and a region-granularity tracker that aggregates
// touches over power-of-two page ranges, splitting regions where heat
// diverges and merging them back as they cool (RegionTracker) — plus a
// chainable Forecaster that predicts next-quantum heat from the decayed
// observations.
//
// The interface is the seam real userspace tierers have (memtierd's
// heatmap-over-regions, DAMON's adaptive regions): exact counters cost
// O(pages) memory and O(pages) per cooling sweep, which caps tractable
// address spaces around 10^6 pages; a region tracker costs
// O(pages/granularity + split leaves), reaching 10^7-10^8 pages in the
// same budget at the price of heat smearing within regions. Systems
// select the point on that trade-off through sim.Config.Heat without
// code changes.
//
// Every implementation follows the repo's determinism contract: sweeps
// shard over fixed contiguous ranges (shard.DefaultShards) with
// partials reduced in shard index order, so results are bit-identical
// at every worker count. A RegionTracker at granularity 1 with the
// pass-through forecaster reproduces the exact tracker's behavior bit
// for bit — the golden placement traces pin exactly that.
//
// Each sharded query (Cool, AppendHot, BytesByCount) hands shard.Run a
// pass bound once when the tracker is built. The query stores its
// inputs in the tracker, each pass writes only its own shard's slot of
// the per-shard partials, and the slots and scratch are reused, so
// none of the three allocates once its scratch has grown. The region
// tracker's queries read its cells through one callback-free run walk
// (RegionTracker.next), which steps over cold cells without a call.
// ReadCounts, the serial read of a window of pages, starts that walk at
// the leaf holding the window's first page, so a window pays only for
// its own runs; on the exact tracker it is a copy.
package heat

import (
	"fmt"

	"colloid/internal/access"
	"colloid/internal/pages"
)

// Tracker is how a tiering system consumes access information. One
// Touch per observed sample; Cool decays all heat (implementations may
// also cool themselves when a hot spot saturates, as HeMem does);
// everything else is a deterministic read. Trackers are single-writer:
// the owning system mutates them between quanta, and only the bulk
// queries (Cool, AppendHot, BytesByCount) fan out internally under the
// shard discipline.
type Tracker interface {
	// Name identifies the tracker configuration (e.g. "exact",
	// "region/64").
	Name() string
	// Touch records one sampled access and returns the page's count
	// after it, cooling included: what Count(id) would return, without
	// a second lookup.
	Touch(id pages.PageID) uint32
	// Cool decays every count, as the systems' periodic cooling does.
	Cool()
	// Cools returns how many cooling passes have run.
	Cools() int
	// Count returns the page's (estimated) frequency count. Coarse
	// trackers smear a region's heat uniformly over its pages.
	Count(id pages.PageID) uint32
	// Probability estimates the page's access probability: its
	// estimated count over the total count (0 before any sample).
	Probability(id pages.PageID) float64
	// Total returns the cumulative count across pages.
	Total() uint64
	// Tracked returns the number of pages with a nonzero estimated
	// count.
	Tracked() int
	// SetWorkers sets the fan-out for the sharded sweeps. Values below
	// 1 clamp to 1; worker count never changes results.
	SetWorkers(w int)
	// ReadCounts sets dst[i] to page lo+i's estimated count, zero for a
	// page with none: untracked, or past the highest page ID the tracker
	// can serve. lo must not be negative. A caller reads a range of any
	// size in fixed-size windows, so no per-page callback is made and
	// no buffer grows with the space.
	ReadCounts(lo pages.PageID, dst []uint32)
	// ForEachHottest visits every page with a nonzero estimated count
	// in descending count order (page-ID ascending within a count),
	// stopping early when fn returns true. Its count buckets are tracker
	// scratch, reused by the next call, so fn must not call it again.
	ForEachHottest(fn func(id pages.PageID, count uint32) (stop bool))
	// AppendHot appends, in ascending page-ID order, every page whose
	// estimated count is at least threshold (clamped up to 1) and for
	// which keep (when non-nil) returns true. A positive max caps the
	// result; the scan shards by range with per-shard buffers capped at
	// max and concatenated in shard index order, so the result is the
	// serial scan's first max hot pages by ID at any worker count. keep
	// may be called from shard workers and must only read.
	AppendHot(dst []pages.PageID, threshold uint32, keep func(id pages.PageID) bool, max int) []pages.PageID
	// BytesByCount fills hist with the bytes resting at each estimated
	// count (clamped to len(hist)-1), pricing every page at
	// v.PageBytes: the access histogram MEMTIS derives its dynamic hot
	// threshold from. hist is zeroed first; hist[0] stays zero
	// (untracked pages are skipped).
	BytesByCount(hist []int64, v pages.View)
	// MemoryFootprintBytes reports the tracker's storage cost — the
	// number the fidelity ablation trades against placement quality.
	MemoryFootprintBytes() int64
}

// The exact tracker must satisfy the interface it anchors.
var _ Tracker = (*access.FreqTracker)(nil)
var _ Tracker = (*RegionTracker)(nil)

// Kind selects a Tracker implementation.
type Kind int

const (
	// Exact is per-page frequency counting (access.FreqTracker) — full
	// fidelity, O(pages) memory. The zero value, so an unconfigured
	// simulation keeps the historical behavior.
	Exact Kind = iota
	// Region aggregates touches over power-of-two page ranges
	// (RegionTracker) — O(pages/granularity) memory, heat smeared
	// within regions.
	Region
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Exact:
		return "exact"
	case Region:
		return "region"
	default:
		return fmt.Sprintf("heat.Kind(%d)", int(k))
	}
}

// MaxRegionPages bounds the region granularity (2^20 pages per region).
const MaxRegionPages = 1 << 20

// DefaultRegionPages is the granularity a Region spec gets when
// RegionPages is left zero.
const DefaultRegionPages = 64

// Spec selects and configures a Tracker. The zero value is the exact
// per-page tracker, so existing configurations are unchanged.
type Spec struct {
	// Kind picks the implementation.
	Kind Kind
	// RegionPages is the Region kind's base granularity in pages — a
	// power of two; regions refine below it where heat diverges and
	// merge back as they cool, but never aggregate above it. 0 means
	// DefaultRegionPages. Ignored by Exact.
	RegionPages int
	// Forecaster predicts next-quantum heat from the decayed
	// observations (Region kind only). Nil means Passthrough — report
	// the observed counts themselves, which is what the exact tracker
	// does and what the granularity-1 bit-identity goldens require.
	Forecaster Forecaster
}

func (s Spec) withDefaults() Spec {
	if s.Kind == Region && s.RegionPages == 0 {
		s.RegionPages = DefaultRegionPages
	}
	if s.Forecaster == nil {
		s.Forecaster = Passthrough{}
	}
	return s
}

// Validate reports every problem with the spec.
func (s Spec) Validate() error {
	switch s.Kind {
	case Exact:
		if s.RegionPages != 0 {
			return fmt.Errorf("heat: RegionPages %d is meaningless for the exact tracker (use Kind: heat.Region)", s.RegionPages)
		}
		if s.Forecaster != nil {
			if _, pass := s.Forecaster.(Passthrough); !pass {
				return fmt.Errorf("heat: forecaster %q is meaningless for the exact tracker (use Kind: heat.Region)", s.Forecaster.Name())
			}
		}
		return nil
	case Region:
		g := s.RegionPages
		if g == 0 {
			return nil
		}
		if g < 1 || g > MaxRegionPages || g&(g-1) != 0 {
			return fmt.Errorf("heat: region granularity %d pages must be a power of two in [1, %d]", g, MaxRegionPages)
		}
		return nil
	default:
		return fmt.Errorf("heat: unknown tracker kind %d", int(s.Kind))
	}
}

// String names the configuration ("exact", "region/64", or
// "region/64+ewma" with a non-trivial forecaster). An invalid
// forecaster-on-exact combination renders as "exact+<name>" rather than
// dropping the forecaster, so the spec Validate rejects is the spec the
// diagnostic shows.
func (s Spec) String() string {
	s = s.withDefaults()
	name := "exact"
	if s.Kind != Exact {
		name = fmt.Sprintf("region/%d", s.RegionPages)
	}
	if f := s.Forecaster.Name(); f != "passthrough" {
		name += "+" + f
	}
	return name
}

// NewTracker builds the configured tracker. coolThreshold is the
// owning system's cooling threshold (HeMem's COOLING_THRESHOLD,
// MEMTIS's histogram cap); it must be at least 2.
func (s Spec) NewTracker(coolThreshold uint32) Tracker {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	s = s.withDefaults()
	switch s.Kind {
	case Exact:
		return access.NewFreqTracker(coolThreshold)
	default:
		return NewRegionTracker(coolThreshold, s.RegionPages, s.Forecaster)
	}
}
