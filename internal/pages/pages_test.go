package pages

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"colloid/internal/memsys"
)

func testTopology(t *testing.T) *memsys.Topology {
	t.Helper()
	return memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
}

func testSpace(t *testing.T, totalGiB int64) *AddressSpace {
	t.Helper()
	as, err := NewAddressSpace(testTopology(t), totalGiB*memsys.GiB, HugePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

func TestFirstFitPlacement(t *testing.T) {
	as := testSpace(t, 72)
	// 32 GiB fits in default, remaining 40 GiB spills to the remote tier.
	if got := as.TierBytes(0); got != 32*memsys.GiB {
		t.Fatalf("default tier bytes = %d", got)
	}
	if got := as.TierBytes(1); got != 40*memsys.GiB {
		t.Fatalf("alternate tier bytes = %d", got)
	}
	if as.NumPages() != int(72*memsys.GiB/HugePageBytes) {
		t.Fatalf("pages = %d", as.NumPages())
	}
}

func TestWorkingSetTooLarge(t *testing.T) {
	if _, err := NewAddressSpace(testTopology(t), 1024*memsys.GiB, HugePageBytes); err == nil {
		t.Fatal("oversized working set accepted")
	}
}

func TestInvalidSizes(t *testing.T) {
	topo := testTopology(t)
	if _, err := NewAddressSpace(topo, 0, HugePageBytes); err == nil {
		t.Fatal("zero total accepted")
	}
	if _, err := NewAddressSpace(topo, HugePageBytes+1, HugePageBytes); err == nil {
		t.Fatal("non-multiple total accepted")
	}
}

// manyTiers returns a topology of n tiers: the default tier and n-1
// CXL expanders of 1 GiB each.
func manyTiers(n int) *memsys.Topology {
	cfgs := []memsys.TierConfig{memsys.DualSocketXeonDefault()}
	for len(cfgs) < n {
		cfgs = append(cfgs, memsys.CXLTier(memsys.GiB))
	}
	return memsys.MustTopology(cfgs...)
}

// A page's tier is one byte: a space over more tiers than a byte names
// is refused, and in one over 256 tiers every accessor reads the last
// tier back.
func TestOneByteTierLimit(t *testing.T) {
	_, err := NewAddressSpace(manyTiers(maxTiers+1), 4*HugePageBytes, HugePageBytes)
	if err == nil || !strings.HasPrefix(err.Error(), "pages: ") {
		t.Fatalf("%d tiers: err = %v, want a pages: error", maxTiers+1, err)
	}
	as, err := NewAddressSpace(manyTiers(maxTiers), 4*HugePageBytes, HugePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	const last = memsys.TierID(maxTiers - 1)
	if err := as.Move(1, last); err != nil {
		t.Fatal(err)
	}
	if err := as.Move(2, last+1); err == nil {
		t.Fatalf("move to tier %d of %d accepted", last+1, maxTiers)
	}
	if got := as.Tier(1); got != last {
		t.Fatalf("Tier = %d, want %d", got, last)
	}
	if got := as.Get(1).Tier; got != last {
		t.Fatalf("Get().Tier = %d, want %d", got, last)
	}
	var tiers []memsys.TierID
	as.ForEachLive(func(p Page) { tiers = append(tiers, p.Tier) })
	if want := []memsys.TierID{0, last, 0, 0}; !slices.Equal(tiers, want) {
		t.Fatalf("ForEachLive tiers = %v, want %v", tiers, want)
	}
	if got := as.LiveView().Tier; !slices.Equal(got, []uint8{0, uint8(last), 0, 0}) {
		t.Fatalf("LiveView().Tier = %v", got)
	}
	if got := as.TierBytes(last); got != HugePageBytes {
		t.Fatalf("TierBytes(%d) = %d, want %d", last, got, HugePageBytes)
	}
}

func TestSetWeightUpdatesShares(t *testing.T) {
	as := testSpace(t, 4)
	as.SetWeight(0, 0.75)
	as.SetWeight(1, 0.25)
	share := as.TierShare()
	if math.Abs(share[0]-1) > 1e-12 {
		t.Fatalf("default share = %v, want 1 (all weight in default)", share[0])
	}
	if math.Abs(as.DefaultShare()-1) > 1e-12 {
		t.Fatalf("DefaultShare = %v", as.DefaultShare())
	}
}

func TestMoveUpdatesAggregates(t *testing.T) {
	as := testSpace(t, 4)
	as.SetWeight(0, 0.6)
	as.SetWeight(1, 0.4)
	if err := as.Move(0, 1); err != nil {
		t.Fatal(err)
	}
	if math.Abs(as.DefaultShare()-0.4) > 1e-12 {
		t.Fatalf("p after move = %v, want 0.4", as.DefaultShare())
	}
	if as.Tier(0) != 1 {
		t.Fatal("page tier not updated")
	}
	// Move back.
	if err := as.Move(0, 0); err != nil {
		t.Fatal(err)
	}
	if math.Abs(as.DefaultShare()-1) > 1e-12 {
		t.Fatalf("p after move back = %v", as.DefaultShare())
	}
}

func TestMoveRespectsCapacity(t *testing.T) {
	// Working set equal to total capacity: the default tier is full, so
	// promoting a page must fail until something is demoted.
	as, err := NewAddressSpace(testTopology(t), 128*memsys.GiB, HugePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	var inAlt PageID = NoPage
	as.ForEachLive(func(p Page) {
		if p.Tier == 1 && inAlt == NoPage {
			inAlt = p.ID
		}
	})
	if err := as.Move(inAlt, 0); err == nil {
		t.Fatal("move into full tier accepted")
	}
}

// SpillTier picks the first alternate tier with free space and falls
// back to tier 1 once every alternate tier is full.
func TestSpillTier(t *testing.T) {
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote(), memsys.CXLTier(4*memsys.GiB))
	for _, c := range []struct {
		wsGiB int64
		want  memsys.TierID
	}{{64, 1}, {130, 2}, {132, 1}} {
		as, err := NewAddressSpace(topo, c.wsGiB*memsys.GiB, HugePageBytes)
		if err != nil {
			t.Fatal(err)
		}
		if got := as.SpillTier(); got != c.want {
			t.Fatalf("%d GiB working set: SpillTier = %d, want %d", c.wsGiB, got, c.want)
		}
	}
}

func TestMoveNoopSameTier(t *testing.T) {
	as := testSpace(t, 4)
	id := PageID(0)
	before := as.TierBytes(0)
	if err := as.Move(id, as.Tier(id)); err != nil {
		t.Fatal(err)
	}
	if as.TierBytes(0) != before {
		t.Fatal("no-op move changed aggregates")
	}
}

// mustPanicPages asserts fn panics with a "pages:"-prefixed message —
// the contract for accessors fed NoPage or an out-of-range ID.
func mustPanicPages(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", what)
		}
		msg, ok := r.(string)
		if !ok || !strings.HasPrefix(msg, "pages:") {
			t.Fatalf("%s panicked with %v, want pages:-prefixed message", what, r)
		}
	}()
	fn()
}

func TestBadIDAccessors(t *testing.T) {
	as := testSpace(t, 4)
	outOfRange := PageID(as.NumPages())
	for _, id := range []PageID{NoPage, outOfRange} {
		id := id
		mustPanicPages(t, "Get", func() { as.Get(id) })
		mustPanicPages(t, "Tier", func() { as.Tier(id) })
		mustPanicPages(t, "Weight", func() { as.Weight(id) })
		mustPanicPages(t, "SetWeight", func() { as.SetWeight(id, 0.5) })
		if err := as.Move(id, 1); err == nil || !strings.Contains(err.Error(), "pages:") {
			t.Fatalf("Move(%d) = %v, want descriptive error", id, err)
		}
	}
}

func TestTierShareInto(t *testing.T) {
	as := testSpace(t, 4)
	as.SetWeight(0, 0.75)
	buf := make([]float64, 0, as.NumTiers())
	got := as.TierShareInto(buf)
	want := as.TierShare()
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("share[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("TierShareInto did not reuse the caller's buffer")
	}
}

// TestChurnConservation drives 10³ random weight updates and moves and
// asserts the incrementally-maintained aggregates (total weight,
// per-tier bytes and weights) match a from-scratch recount, and that
// ForEachLive stays ID-ordered.
func TestChurnConservation(t *testing.T) {
	as := testSpace(t, 8)
	rng := rand.New(rand.NewSource(1))
	for id := range PageID(as.NumPages()) {
		as.SetWeight(id, rng.Float64()/float64(as.NumPages()))
	}
	for op := 0; op < 1000; op++ {
		id := PageID(rng.Intn(as.NumPages()))
		if rng.Intn(2) == 0 {
			as.SetWeight(id, rng.Float64()/float64(as.NumPages()))
		} else {
			_ = as.Move(id, memsys.TierID(rng.Intn(as.NumTiers()))) // capacity failures are fine
		}
	}
	var weight float64
	tierBytes := make([]int64, as.NumTiers())
	tierWeight := make([]float64, as.NumTiers())
	count := 0
	as.ForEachLive(func(p Page) {
		if int(p.ID) != count {
			t.Fatalf("ForEachLive out of ID order: page %d at position %d", p.ID, count)
		}
		weight += p.Weight
		tierBytes[p.Tier] += p.Bytes
		tierWeight[p.Tier] += p.Weight
		count++
	})
	if count != as.NumPages() {
		t.Fatalf("NumPages = %d, ForEachLive visited %d", as.NumPages(), count)
	}
	if math.Abs(weight-as.totalWeight) > 1e-6 {
		t.Fatalf("totalWeight = %v, recount = %v", as.totalWeight, weight)
	}
	for tier := range tierBytes {
		if tierBytes[tier] != as.TierBytes(memsys.TierID(tier)) {
			t.Fatalf("tier %d bytes = %d, recount = %d", tier, as.TierBytes(memsys.TierID(tier)), tierBytes[tier])
		}
		if math.Abs(tierWeight[tier]-as.tierWeight[tier]) > 1e-6 {
			t.Fatalf("tier %d weight = %v, recount = %v", tier, as.tierWeight[tier], tierWeight[tier])
		}
	}
}

// SetWeights must leave exactly the state a SetWeight loop over the IDs
// leaves: bit-equal weights, per-tier and total sums and so shares,
// on 2- and 3-tier spaces whose pages have moved across tiers, with
// weights going 0→w, w→0, w→w and w→w'. It bumps the version once, and
// a negative weight panics with SetWeight's message.
func TestSetWeightsMatchesSetWeight(t *testing.T) {
	for _, c := range []struct {
		name string
		topo *memsys.Topology
	}{
		{"2-tier", testTopology(t)},
		{"3-tier", memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote(), memsys.CXLTier(4*memsys.GiB))},
	} {
		name, topo := c.name, c.topo
		bulk, err := NewAddressSpace(topo, 8*memsys.GiB, HugePageBytes)
		if err != nil {
			t.Fatal(err)
		}
		loop, _ := NewAddressSpace(topo, 8*memsys.GiB, HugePageBytes)
		n := bulk.NumPages()
		rng := rand.New(rand.NewSource(7))
		before := make([]float64, n)
		after := make([]float64, n)
		for i := range before {
			w, w2 := rng.Float64()/float64(n), rng.Float64()/float64(n)
			switch i % 4 {
			case 0: // 0 -> w
				after[i] = w
			case 1: // w -> 0
				before[i] = w
			case 2: // w -> w
				before[i], after[i] = w, w
			case 3: // w -> w'
				before[i], after[i] = w, w2
			}
		}
		for _, as := range []*AddressSpace{bulk, loop} {
			for i, w := range before {
				as.SetWeight(PageID(i), w)
			}
		}
		for op := 0; op < n; op++ {
			id, to := PageID(rng.Intn(n)), memsys.TierID(rng.Intn(topo.NumTiers()))
			if err := bulk.Move(id, to); err == nil {
				if err := loop.Move(id, to); err != nil {
					t.Fatal(err)
				}
			}
		}
		for tier := 0; tier < topo.NumTiers(); tier++ {
			if bulk.TierBytes(memsys.TierID(tier)) == 0 {
				t.Fatalf("%s: tier %d holds no page after the moves", name, tier)
			}
		}
		v := bulk.Version()
		bulk.SetWeights(func(id PageID) float64 { return after[id] })
		for i, w := range after {
			loop.SetWeight(PageID(i), w)
		}
		if bulk.Version() != v+1 {
			t.Fatalf("%s: version %d -> %d, want one bump", name, v, bulk.Version())
		}
		for i := range after {
			if a, b := bulk.weight[i], loop.weight[i]; math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: page %d weight %v, SetWeight loop gives %v", name, i, a, b)
			}
		}
		for tier, a := range bulk.TierShare() {
			if b := loop.TierShare()[tier]; math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: tier %d share %v, SetWeight loop gives %v", name, tier, a, b)
			}
		}
		if a, b := bulk.DefaultShare(), loop.DefaultShare(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: DefaultShare %v, SetWeight loop gives %v", name, a, b)
		}
		if a, b := bulk.totalWeight, loop.totalWeight; math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: total weight %v, SetWeight loop gives %v", name, a, b)
		}
	}
	as := testSpace(t, 4)
	recovered := func(f func()) (got any) {
		defer func() { got = recover() }()
		f()
		return nil
	}
	want := recovered(func() { as.SetWeight(5, -1) })
	got := recovered(func() {
		as.SetWeights(func(id PageID) float64 {
			if id == 5 {
				return -1
			}
			return 0.1
		})
	})
	if want == nil || got != want {
		t.Fatalf("SetWeights panics with %v, SetWeight with %v", got, want)
	}
}

func TestLiveViewAliasesState(t *testing.T) {
	as := testSpace(t, 4)
	as.SetWeight(3, 0.5)
	v := as.LiveView()
	if len(v.Weight) != as.NumPages() || len(v.Tier) != as.NumPages() {
		t.Fatalf("view covers %d/%d pages, want %d", len(v.Weight), len(v.Tier), as.NumPages())
	}
	if v.Weight[3] != 0.5 {
		t.Fatalf("view weight = %v, want 0.5", v.Weight[3])
	}
	if v.PageBytes != HugePageBytes {
		t.Fatalf("view page bytes = %d", v.PageBytes)
	}
}

// Property: for any sequence of weight updates and legal moves, the sum
// of per-tier weights equals the sum of page weights, and
// TierShare sums to 1 when weights exist.
func TestAggregateInvariant(t *testing.T) {
	as := testSpace(t, 8)
	f := func(ops []struct {
		Idx  uint16
		W    uint16
		Tier bool
	}) bool {
		for _, op := range ops {
			id := PageID(int(op.Idx) % as.NumPages())
			as.SetWeight(id, float64(op.W)/65535.0)
			to := memsys.TierID(0)
			if op.Tier {
				to = 1
			}
			_ = as.Move(id, to) // capacity failures are fine
		}
		var want float64
		as.ForEachLive(func(p Page) { want += p.Weight })
		share := as.TierShare()
		sum := 0.0
		for _, s := range share {
			sum += s
		}
		if want == 0 {
			return sum == 0
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
