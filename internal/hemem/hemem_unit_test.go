package hemem

import (
	"fmt"
	"math"
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
	s := New(Config{CoolThreshold: 16})
	cases := map[uint32]int{1: 0, 3: 0, 4: 1, 7: 2, 12: 3, 15: 4, 16: 4, 100: 4}
	for count, want := range cases {
		if got := s.binIndex(count); got != want {
			t.Errorf("binIndex(%d) = %d, want %d", count, got, want)
		}
	}
}

// binIndex's edge compares must give the bin the division gives, in 64
// bits so no product wraps: every count up to three times the threshold
// (capped), the counts around each edge and the largest count.
func TestBinIndexMatchesDivision(t *testing.T) {
	for _, ct := range []uint32{2, 3, 5, 16, 17, 1000, 1 << 20, math.MaxUint32} {
		s := New(Config{CoolThreshold: ct})
		var counts []uint32
		for c := range uint32(3 * min(ct, 100_000)) {
			counts = append(counts, c)
		}
		for _, e := range s.edges {
			for d := -2; d <= 2; d++ {
				if c := int64(e) + int64(d); c >= 0 && c <= math.MaxUint32 {
					counts = append(counts, uint32(c))
				}
			}
		}
		counts = append(counts, math.MaxUint32)
		for _, c := range counts {
			want := int(min(uint64(c)*numBins/uint64(ct), numBins-1))
			if got := s.binIndex(c); got != want {
				t.Fatalf("CoolThreshold %d: binIndex(%d) = %d, want %d", ct, c, got, want)
			}
		}
	}
}

func TestClassifyMaintainsBinsAndHotSets(t *testing.T) {
	ctx := unitContext(t)
	s := New(Config{HotThreshold: 4, CoolThreshold: 16})
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
	s := New(Config{HotThreshold: 4, CoolThreshold: 16})
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

// The Colloid walk offers its candidates hottest bin first: with a
// byte budget of k pages, a Demote walk moves exactly the k hottest of
// three pages at counts 12, 6 and 2.
func TestCandidatesOrderedHottestFirst(t *testing.T) {
	for k := 1; k <= 3; k++ {
		ctx := unitContext(t)
		ctx.Migrator.BeginQuantum(ctx.QuantumSec)
		s := New(Config{HotThreshold: 2, CoolThreshold: 16})
		s.ensureTracker(ctx)
		for i, n := range []int{12, 6, 2} {
			var c uint32
			for j := 0; j < n; j++ {
				c = s.tracker.Touch(pages.PageID(i))
			}
			s.classify(ctx, pages.PageID(i), c)
		}
		// Half a page over k pages, so rounding cannot cut the budget.
		limit := (float64(k) + 0.5) * pages.HugePageBytes / s.cfg.QuantumSec
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
