package hemem

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"colloid/internal/core"
	"colloid/internal/heat"
	"colloid/internal/memsys"
	"colloid/internal/migrate"
	"colloid/internal/pages"
	"colloid/internal/sim"
	"colloid/internal/stats"
	"colloid/internal/workloads"
)

// unitContext builds a minimal sim.Context over a small address space
// without running the engine, for whitebox tests of list maintenance.
func unitContext(t *testing.T) *sim.Context {
	t.Helper()
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	as, err := pages.NewAddressSpace(topo, 8*memsys.GiB, pages.HugePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	return &sim.Context{
		QuantumSec: 0.01,
		AS:         as,
		Topo:       topo,
		Migrator:   migrate.NewEngine(as, 2, 0),
		RNG:        stats.NewRNG(1),
	}
}

// The walk's demoted mark rides in what was padding: a page's record
// stays 12 bytes.
func TestPageStateIsTwelveBytes(t *testing.T) {
	if n := unsafe.Sizeof(pageState{}); n != 12 {
		t.Fatalf("pageState is %d bytes, want 12", n)
	}
}

func TestBinIndexBoundaries(t *testing.T) {
	s := New(Config{})
	cases := map[uint32]int{1: 0, 3: 0, 4: 1, 7: 2, 12: 3, 15: 4, 16: 4, 100: 4}
	for count, want := range cases {
		if got := s.binIndex(count); got != want {
			t.Errorf("binIndex(%d) = %d, want %d", count, got, want)
		}
	}
}

// binIndex's constant edges must give the bin the division by
// coolThreshold gives, in 64 bits so no product wraps: every count up
// to three times the threshold, the counts around each edge and the
// largest count.
func TestBinIndexMatchesDivision(t *testing.T) {
	s := New(Config{})
	var counts []uint32
	for c := range uint32(3 * coolThreshold) {
		counts = append(counts, c)
	}
	for _, e := range []uint32{4, 7, 10, 13} {
		for d := uint32(0); d <= 4; d++ {
			counts = append(counts, e+d-2)
		}
	}
	counts = append(counts, math.MaxUint32)
	for _, c := range counts {
		want := int(min(uint64(c)*numBins/coolThreshold, numBins-1))
		if got := s.binIndex(c); got != want {
			t.Fatalf("binIndex(%d) = %d, want %d", c, got, want)
		}
	}
}

func TestClassifyMaintainsBinsAndHotSets(t *testing.T) {
	ctx := unitContext(t)
	s := New(Config{})
	s.ensureTracker(ctx)
	id := pages.PageID(0)

	// Below the hot threshold: binned but not hot.
	for i := 0; i < 3; i++ {
		s.tracker.Touch(id)
	}
	s.classify(ctx, id, s.tracker.Count(id))
	if s.state[id].hot {
		t.Fatal("count 3 classified hot")
	}
	if bin := int(s.state[id].bin) - 1; bin != 0 {
		t.Fatalf("bin = %d, want 0", bin)
	}

	// Crossing the threshold in the default tier: hot, not in hotAlt.
	s.tracker.Touch(id)
	s.classify(ctx, id, s.tracker.Count(id))
	if !s.state[id].hot {
		t.Fatal("count 4 not hot")
	}
	if s.state[id].altPos != 0 {
		t.Fatal("default-tier page in hotAlt")
	}

	// Same count for an alternate-tier page: joins the promotion list.
	// (The small test space fits in the default tier, so move one.)
	altID := pages.PageID(1)
	if err := ctx.AS.Move(altID, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s.tracker.Touch(altID)
	}
	s.classify(ctx, altID, s.tracker.Count(altID))
	if s.state[altID].altPos == 0 {
		t.Fatal("hot alternate-tier page missing from hotAlt")
	}
}

func TestRebuildAfterCooling(t *testing.T) {
	ctx := unitContext(t)
	s := New(Config{})
	s.ensureTracker(ctx)
	id := pages.PageID(0)
	for i := 0; i < 7; i++ {
		s.tracker.Touch(id)
	}
	s.classify(ctx, id, s.tracker.Count(id))
	if bin := int(s.state[id].bin) - 1; bin != 2 {
		t.Fatalf("bin before cool = %d", bin)
	}
	s.tracker.Cool() // 7 -> 3: below hot threshold
	s.rebuildLists(ctx)
	if s.state[id].hot {
		t.Fatal("cooled page still hot")
	}
	if bin := int(s.state[id].bin) - 1; bin != 0 {
		t.Fatalf("bin after cool = %d, want 0", bin)
	}
	if s.cools != 1 {
		t.Fatalf("cools = %d", s.cools)
	}
}

// refForEach visits what the tracker's ForEach did before ReadCounts
// replaced it: every page with a nonzero estimated count, in ascending
// page-ID order, with that count. AppendHot at threshold 1 lists
// exactly those pages, the region tracker's maxID clamp included.
func refForEach(tr heat.Tracker, fn func(id pages.PageID, count uint32)) {
	for _, id := range tr.AppendHot(nil, 1, nil, 0) {
		fn(id, tr.Count(id))
	}
}

// refRebuildLists is the cooling rebuild as it was before it read
// counts in chunks, kept as the reference: one callback per tracked
// page, filing it into the hot set, the promotion worklist and its bin.
func refRebuildLists(s *System, ctx *sim.Context) {
	clear(s.state)
	s.nHot = 0
	s.hotAlt = s.hotAlt[:0]
	for b := range s.bins {
		s.bins[b] = s.bins[b][:0]
	}
	tiers := ctx.AS.LiveView().Tier
	refForEach(s.tracker, func(id pages.PageID, count uint32) {
		if count >= hotThreshold {
			s.state[id].hot = true
			s.nHot++
			if memsys.TierID(tiers[id]) != memsys.DefaultTier {
				s.addAlt(id)
			}
		}
		s.addBin(id, s.binIndex(count))
	})
}

// listSnapshot is a copy of everything a rebuild writes.
type listSnapshot struct {
	state  []pageState
	bins   [numBins][]pages.PageID
	hotAlt []pages.PageID
	nHot   int
}

func snapshotLists(s *System) listSnapshot {
	snap := listSnapshot{state: slices.Clone(s.state), hotAlt: slices.Clone(s.hotAlt), nHot: s.nHot}
	for b := range s.bins {
		snap.bins[b] = slices.Clone(s.bins[b])
	}
	return snap
}

// The chunked rebuild files pages exactly as the reference did: the
// same records, the same five bins and promotion worklist in the same
// order, and the same hot count, on the exact tracker and on region
// trackers at granularities 64 and 1024 with and without a chained
// forecaster, each after several rounds of fresh heat with and without
// a cooling pass before the rebuild. Once its lists have grown, the
// rebuild allocates nothing.
func TestRebuildListsMatchesReference(t *testing.T) {
	chain, err := heat.ParseForecaster("trend>ewma")
	if err != nil {
		t.Fatal(err)
	}
	var allBins [numBins]int
	for _, spec := range []heat.Spec{
		{},
		{Kind: heat.Region, RegionPages: 64},
		{Kind: heat.Region, RegionPages: 1024},
		{Kind: heat.Region, RegionPages: 64, Forecaster: chain},
	} {
		s, ctx := walkSystem(t, 5, spec)
		rng := stats.NewRNG(6)
		var alts int
		var binned [numBins]int
		for round := 0; round < 6; round++ {
			reheat(s, ctx, rng, 20)
			for _, cool := range []bool{false, true} {
				if cool {
					s.tracker.Cool()
				}
				s.rebuildLists(ctx)
				got := snapshotLists(s)
				refRebuildLists(s, ctx)
				want := snapshotLists(s)
				label := fmt.Sprintf("%s round %d cool %v", spec, round, cool)
				if !slices.Equal(got.state, want.state) {
					t.Fatalf("%s: page records differ from the reference", label)
				}
				for b := range want.bins {
					if !slices.Equal(got.bins[b], want.bins[b]) {
						t.Fatalf("%s: bin %d holds %v, reference %v", label, b, got.bins[b], want.bins[b])
					}
					binned[b] += len(want.bins[b])
				}
				if !slices.Equal(got.hotAlt, want.hotAlt) {
					t.Fatalf("%s: hotAlt holds %v, reference %v", label, got.hotAlt, want.hotAlt)
				}
				if got.nHot != want.nHot {
					t.Fatalf("%s: nHot %d, reference %d", label, got.nHot, want.nHot)
				}
				alts += len(want.hotAlt)
			}
		}
		if alts == 0 || binned[1] == 0 {
			t.Fatalf("%s: rebuilds not exercised: %d worklist entries, bin sizes %v", spec, alts, binned)
		}
		for b, n := range binned {
			allBins[b] += n
		}
		if n := testing.AllocsPerRun(10, func() { s.rebuildLists(ctx) }); n != 0 {
			t.Fatalf("%s: rebuildLists allocates %v times a call", spec, n)
		}
	}
	if slices.Contains(allBins[:], 0) {
		t.Fatalf("rebuilds left a bin empty throughout: bin sizes %v", allBins)
	}
}

// The Colloid walk offers its candidates hottest bin first: with a
// byte budget of k pages, a Demote walk moves exactly the k hottest of
// three pages at counts 12, 6 and 2.
func TestCandidatesOrderedHottestFirst(t *testing.T) {
	for k := 1; k <= 3; k++ {
		ctx := unitContext(t)
		ctx.Migrator.BeginQuantum(ctx.QuantumSec)
		s := New(Config{})
		s.ensureTracker(ctx)
		for i, n := range []int{12, 6, 2} {
			var c uint32
			for j := 0; j < n; j++ {
				c = s.tracker.Touch(pages.PageID(i))
			}
			s.classify(ctx, pages.PageID(i), c)
		}
		// Half a page over k pages, so rounding cannot cut the budget.
		limit := (float64(k) + 0.5) * pages.HugePageBytes / quantumSec
		s.walk(ctx, core.Decision{Mode: core.Demote, DeltaP: 1, MigrationLimitBytesPerSec: limit})
		for id := range pages.PageID(3) {
			if moved := ctx.AS.Tier(id) != memsys.DefaultTier; moved != (int(id) < k) {
				t.Fatalf("budget of %d pages: page at rank %d moved = %v", k, id, moved)
			}
		}
	}
}

func TestEnsureDefaultFreeDemotesCold(t *testing.T) {
	ctx := unitContext(t)
	s := New(Config{})
	s.ensureTracker(ctx)
	// The 8 GiB working set fits entirely in the 32 GiB default tier
	// under first-fit, so it has free space already.
	if !s.ensureDefaultFree(ctx, pages.HugePageBytes, false) {
		t.Fatal("ensureDefaultFree failed with free capacity")
	}
	// Fill the default tier with a bigger space to force demotion.
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	as, err := pages.NewAddressSpace(topo, 72*memsys.GiB, pages.HugePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	ctx2 := &sim.Context{
		QuantumSec: 0.01, AS: as, Topo: topo,
		Migrator: migrate.NewEngine(as, 2, 0), RNG: stats.NewRNG(2),
	}
	ctx2.Migrator.BeginQuantum(0.01)
	if as.FreeBytes(memsys.DefaultTier) != 0 {
		t.Fatal("default tier not full under first-fit")
	}
	if !s.ensureDefaultFree(ctx2, pages.HugePageBytes, false) {
		t.Fatal("could not free one page")
	}
	if as.FreeBytes(memsys.DefaultTier) < pages.HugePageBytes {
		t.Fatal("no space freed")
	}
}

func TestHotSetShiftReclassifies(t *testing.T) {
	// End-to-end smoke for list maintenance across a workload change:
	// after ShiftHotSet the tracker must converge to the new hot set.
	if testing.Short() {
		t.Skip("long simulation")
	}
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	g := workloads.DefaultGUPS()
	sys := New(Config{})
	e, err := sim.New(sim.Config{
		Topology: topo, WorkingSetBytes: g.WorkingSetBytes,
		Profile: g.Profile(), Workload: g, Seed: 5,
	}, sim.WithSystem(sys))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	g.ShiftHotSet(e.AS(), e.WorkloadRNG())
	if err := e.Run(30); err != nil {
		t.Fatal(err)
	}
	// Most classified-hot pages should now be truly hot.
	trueHot := 0
	for id, st := range sys.state {
		if st.hot && g.IsHot(pages.PageID(id)) {
			trueHot++
		}
	}
	if sys.nHot == 0 || float64(trueHot)/float64(sys.nHot) < 0.8 {
		t.Fatalf("hot set stale after shift: %d/%d truly hot", trueHot, sys.nHot)
	}
}

// Every list entry's record must point back at its slot, after every
// quantum of vanilla and Colloid HeMem on exact and region heat, across
// cooling passes, migrations and a hot-set shift.
func TestPageRecordsMatchLists(t *testing.T) {
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	for _, colloid := range []bool{false, true} {
		for _, spec := range []heat.Spec{{}, {Kind: heat.Region, RegionPages: 64}} {
			cfg := Config{}
			if colloid {
				cfg.Colloid = &core.Options{}
			}
			sys := New(cfg)
			g := workloads.DefaultGUPS()
			e, err := sim.New(sim.Config{
				Topology: topo, WorkingSetBytes: g.WorkingSetBytes,
				Profile: g.Profile(), Workload: g, Antagonist: workloads.Intensity3x,
				Heat: spec, Seed: 7,
			}, sim.WithSystem(sys))
			if err != nil {
				t.Fatal(err)
			}
			for q := 0; q < 400; q++ {
				if q == 200 {
					g.ShiftHotSet(e.AS(), e.WorkloadRNG())
				}
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
				checkRecords(t, sys, fmt.Sprintf("%s/%s quantum %d", sys.Name(), spec, q))
			}
			// Exact heat cools within this run; region/64 heat does not.
			if sys.nHot == 0 || (spec.Kind == heat.Exact && sys.cools == 0) {
				t.Fatalf("%s/%s: lists not exercised: %d hot pages, %d cools", sys.Name(), spec, sys.nHot, sys.cools)
			}
		}
	}
}

// checkRecords checks that each hotAlt and bin entry has a record
// pointing back at its slot, that no other record claims a slot (so no
// page sits in two bins), and that nHot counts the hot records.
func checkRecords(t *testing.T, s *System, label string) {
	t.Helper()
	for i, id := range s.hotAlt {
		if st := s.state[id]; int(st.altPos) != i+1 {
			t.Fatalf("%s: hotAlt[%d] = page %d, whose record says altPos %d", label, i, id, st.altPos)
		}
	}
	binned := 0
	for b := range s.bins {
		for i, id := range s.bins[b] {
			if st := s.state[id]; int(st.bin) != b+1 || int(st.binPos) != i+1 {
				t.Fatalf("%s: bins[%d][%d] = page %d, whose record says bin %d pos %d", label, b, i, id, int(st.bin)-1, st.binPos)
			}
		}
		binned += len(s.bins[b])
	}
	alts, bins, hot := 0, 0, 0
	for _, st := range s.state {
		if st.altPos != 0 {
			alts++
		}
		if st.bin != 0 {
			bins++
		}
		if st.hot {
			hot++
		}
	}
	if alts != len(s.hotAlt) || bins != binned {
		t.Fatalf("%s: %d records claim a hotAlt slot and %d a bin slot, lists hold %d and %d", label, alts, bins, len(s.hotAlt), binned)
	}
	if hot != s.nHot {
		t.Fatalf("%s: %d records flagged hot, nHot %d", label, hot, s.nHot)
	}
}
