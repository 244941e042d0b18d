package memtis

import (
	"testing"

	"colloid/internal/memsys"
	"colloid/internal/migrate"
	"colloid/internal/pages"
	"colloid/internal/sim"
	"colloid/internal/stats"
)

func unitContext(t *testing.T, wsGiB int64) *sim.Context {
	t.Helper()
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	as, err := pages.NewAddressSpace(topo, wsGiB*memsys.GiB, pages.HugePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	m := migrate.NewEngine(as, 2, 0)
	m.BeginQuantum(0.01)
	return &sim.Context{
		QuantumSec: 0.01,
		AS:         as,
		Topo:       topo,
		Migrator:   m,
		RNG:        stats.NewRNG(1),
	}
}

func TestHotThresholdSizesToDefaultTier(t *testing.T) {
	// 72 GiB working set over a 32 GiB default tier: if every page had
	// the same count the threshold must exclude some; with a clear
	// bimodal histogram the threshold lands between the modes.
	ctx := unitContext(t, 72)
	s := New(Config{})
	s.ensureTracker(ctx)
	// 12288 pages (24 GiB) at count 10; the rest at count 1.
	for id := range pages.PageID(ctx.AS.NumPages()) {
		n := 1
		if id < 12288 {
			n = 10
		}
		for j := 0; j < n; j++ {
			s.tracker.Touch(id)
		}
	}
	got := s.computeHotThreshold(ctx)
	if got < 2 || got > 10 {
		t.Fatalf("threshold = %d, want in (1, 10]", got)
	}
	// 24 GiB of hot pages fit in 32 GiB, so count-10 pages are hot.
	if got > 10 {
		t.Fatal("threshold excludes the hot mode")
	}
}

func TestHotThresholdAllFitReturnsOne(t *testing.T) {
	// 8 GiB working set fits wholly in the default tier: everything
	// sampled can be hot.
	ctx := unitContext(t, 8)
	s := New(Config{})
	s.ensureTracker(ctx)
	for id := range pages.PageID(100) {
		s.tracker.Touch(id)
	}
	if got := s.computeHotThreshold(ctx); got != 1 {
		t.Fatalf("threshold = %d, want 1", got)
	}
}

func TestSplitMarksHottestAndCapsByWeight(t *testing.T) {
	ctx := unitContext(t, 8)
	s := New(Config{})
	s.ensureTracker(ctx)
	// Two more candidates above threshold than one quantum may split,
	// with distinct counts, hottest first. Splitting the hottest
	// splitsPerQuantum of them puts 0.64 of the weight on split pages.
	const n = splitsPerQuantum + 2
	for i := range pages.PageID(n) {
		ctx.AS.SetWeight(i, 0.005)
		for j := 0; j < 10+n-int(i); j++ {
			s.tracker.Touch(i)
		}
	}
	s.hotThreshold = 2
	s.splitHotHugePages(ctx)
	if s.SplitParents() != splitsPerQuantum {
		t.Fatalf("split %d parents, want %d", s.SplitParents(), splitsPerQuantum)
	}
	if !s.isSplit[0] || !s.isSplit[1] {
		t.Fatal("hottest pages not split")
	}
	if s.isSplit[n-2] || s.isSplit[n-1] {
		t.Fatal("coldest pages split past the per-quantum cap")
	}
	// Split weight now 0.64 >= splitWeightCap: the next pass must stop
	// and latch splitting off.
	s.splitHotHugePages(ctx)
	if s.SplitParents() != splitsPerQuantum {
		t.Fatalf("cap not honored: %d parents", s.SplitParents())
	}
	if s.splitting {
		t.Fatal("splitting not latched off at cap")
	}
}

func TestCoalesceRemovesOneParentPerInterval(t *testing.T) {
	ctx := unitContext(t, 8)
	s := New(Config{})
	s.ensureTracker(ctx)
	s.lastCoalesce = 0
	markSplit(s, ctx, 1, 2)
	ctx.TimeSec = coalesceIntervalSec / 2
	s.coalesceSlowly(ctx)
	if s.SplitParents() != 2 {
		t.Fatal("coalesced before the interval elapsed")
	}
	ctx.TimeSec = coalesceIntervalSec + 1
	s.coalesceSlowly(ctx)
	if s.SplitParents() != 1 {
		t.Fatalf("parents = %d after one interval, want 1", s.SplitParents())
	}
	ctx.TimeSec = 1.5 * coalesceIntervalSec
	s.coalesceSlowly(ctx)
	if s.SplitParents() != 1 {
		t.Fatal("coalesced again before the next interval")
	}
}

// markSplit records ids as split parents, as splitHotHugePages does.
func markSplit(s *System, ctx *sim.Context, ids ...pages.PageID) {
	s.isSplit = make([]bool, ctx.AS.NumPages())
	for _, id := range ids {
		s.split = append(s.split, id)
		s.isSplit[id] = true
	}
}

func TestSplitPenaltyScalesWithWeight(t *testing.T) {
	ctx := unitContext(t, 8)
	s := New(Config{})
	s.ensureTracker(ctx)
	ctx.AS.SetWeight(0, 0.5)
	ctx.AS.SetWeight(1, 0.5)
	markSplit(s, ctx, 0)
	var applied float64
	ctx.SetInflightScale = func(scale float64) { applied = scale }
	s.applySplitPenalty(ctx)
	// Half the weight split at penalty 0.15 -> scale 0.925.
	if applied < 0.915 || applied > 0.935 {
		t.Fatalf("scale = %v, want 0.925", applied)
	}
}

// TestSplitCoalescePenaltyOrder pins which parent a coalesce drops and
// the order the penalty sums the split weights in. MEMTIS coalesces
// once per coalesceIntervalSec (120 s), so no golden run reaches it.
// The weights' float sum depends on its order: splitting A, B, C, D
// (hottest first) and then swap-removing the first parent leaves D, B,
// C, whose weights give scale 0.9400000000000001; B, C, D gives 0.94
// and A, B, C 0.9775.
func TestSplitCoalescePenaltyOrder(t *testing.T) {
	ctx := unitContext(t, 8)
	s := New(Config{})
	s.ensureTracker(ctx)
	for i, w := range []float64{0.05, 0.05, 0.05, 0.3} {
		ctx.AS.SetWeight(pages.PageID(i), w)
		for j := 0; j < 40-10*i; j++ {
			s.tracker.Touch(pages.PageID(i))
		}
	}
	s.hotThreshold = 2
	s.splitHotHugePages(ctx)
	if s.SplitParents() != 4 {
		t.Fatalf("split %d parents, want 4", s.SplitParents())
	}
	var applied float64
	ctx.SetInflightScale = func(scale float64) { applied = scale }
	ctx.TimeSec = coalesceIntervalSec
	s.coalesceSlowly(ctx)
	if s.SplitParents() != 3 {
		t.Fatalf("parents = %d after one interval, want 3", s.SplitParents())
	}
	s.applySplitPenalty(ctx)
	// 1 - splitPenalty*((0.3+0.05)+0.05).
	if want := 0.9400000000000001; applied != want {
		t.Fatalf("scale = %v, want %v", applied, want)
	}
}

func TestDemoteColdFromDefaultPicksBelowThreshold(t *testing.T) {
	ctx := unitContext(t, 72) // default tier full under first-fit
	s := New(Config{})
	s.ensureTracker(ctx)
	s.hotThreshold = 5
	// Make a slice of pages hot so the prober must avoid them.
	for id := range pages.PageID(64) {
		for j := 0; j < 6; j++ {
			s.tracker.Touch(id)
		}
	}
	if !s.demoteColdFromDefault(ctx, pages.HugePageBytes) {
		t.Fatal("could not demote a cold page")
	}
	// The demoted page must be cold (no hot page moved).
	for id := range pages.PageID(64) {
		if ctx.AS.Tier(id) != memsys.DefaultTier {
			t.Fatal("hot page was demoted")
		}
	}
}
