package hemem

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"colloid/internal/access"
	"colloid/internal/core"
	"colloid/internal/heat"
	"colloid/internal/memsys"
	"colloid/internal/migrate"
	"colloid/internal/pages"
	"colloid/internal/sim"
	"colloid/internal/stats"
)

// Shape of the walk tests' space: 2,000 pages of 64 KiB, 800 of which
// fill the default tier, and a migration budget of 61 pages per 10 ms
// quantum (odd, so a promotion's victim can leave its page short).
const (
	walkPages        = 2000
	walkDefaultPages = 800
	walkPageBytes    = 64 << 10
	walkQuantumPages = 61
)

// walkSystem builds a HeMem+Colloid system over the walk tests' space
// with heat folded in through samplePEBS: a hot set of 200 random pages
// draws 70% of the weight, and pairs of pages swap tiers first, so hot
// and cold pages start in both tiers. The same seed and spec always
// build the same system, so two calls give a twin pair.
func walkSystem(t testing.TB, seed uint64, spec heat.Spec) (*System, *sim.Context) {
	t.Helper()
	def := memsys.DualSocketXeonDefault()
	def.CapacityBytes = walkDefaultPages * walkPageBytes
	topo := memsys.MustTopology(def, memsys.DualSocketXeonRemote())
	as, err := pages.NewAddressSpace(topo, walkPages*walkPageBytes, walkPageBytes)
	if err != nil {
		t.Fatal(err)
	}
	const quantum = 0.01
	ctx := &sim.Context{
		QuantumSec: quantum,
		AS:         as,
		Topo:       topo,
		Migrator:   migrate.NewEngine(as, 2, walkQuantumPages*walkPageBytes/quantum),
		Sampler:    access.NewSampler(as, stats.NewRNG(seed+1)),
		RNG:        stats.NewRNG(seed),
		Heat:       spec,
	}
	rng := stats.NewRNG(seed + 2)
	for i := 0; i < 300; i++ {
		a, b := pages.PageID(rng.Intn(walkDefaultPages)), pages.PageID(walkDefaultPages+rng.Intn(walkPages-walkDefaultPages))
		if as.Tier(a) != memsys.DefaultTier || as.Tier(b) == memsys.DefaultTier {
			continue
		}
		if err := as.Move(a, 1); err != nil {
			t.Fatal(err)
		}
		if err := as.Move(b, memsys.DefaultTier); err != nil {
			t.Fatal(err)
		}
	}
	s := New(Config{Colloid: &core.Options{}})
	s.ensureTracker(ctx)
	reheat(s, ctx, rng, 12)
	return s, ctx
}

// reheat draws a new hot set and folds quanta quanta of samples into s.
func reheat(s *System, ctx *sim.Context, rng *stats.RNG, quanta int) {
	hot := rng.Perm(nil, walkPages, 200)
	for id := 0; id < walkPages; id++ {
		ctx.AS.SetWeight(pages.PageID(id), 0.3/walkPages)
	}
	for _, id := range hot {
		ctx.AS.SetWeight(pages.PageID(id), 0.3/walkPages+0.7/200)
	}
	for q := 0; q < quanta; q++ {
		s.samplePEBS(ctx)
	}
}

// refPickPages is the collect-then-move page finder the walk replaced,
// kept as the reference: it picks the whole set before any page moves.
func refPickPages(dst []pages.PageID, deltaP float64, limitBytes, pageBytes int64, maxScan int,
	scan func(offer func(id pages.PageID, prob float64) bool)) []pages.PageID {
	probLeft, bytesLeft, scanned := deltaP, limitBytes, 0
	full := func() bool {
		return probLeft <= deltaP*1e-3 || bytesLeft < pageBytes || (maxScan > 0 && scanned >= maxScan)
	}
	if deltaP <= 0 || limitBytes <= 0 || full() {
		return dst
	}
	scan(func(id pages.PageID, prob float64) bool {
		if full() {
			return false
		}
		scanned++
		if !(prob > probLeft) {
			dst = append(dst, id)
			probLeft -= prob
			bytesLeft -= pageBytes
		}
		return !full()
	})
	return dst
}

// refMigrateColloid is the reference placement: refPickPages over the
// bins hottest first, then one move loop over the picks.
func refMigrateColloid(s *System, ctx *sim.Context, d core.Decision) {
	limitBytes := int64(d.MigrationLimitBytesPerSec * quantumSec)
	if b := ctx.Migrator.Budget(); b < limitBytes {
		limitBytes = b
	}
	var fromTier memsys.TierID
	var toTier memsys.TierID
	if d.Mode == core.Promote {
		fromTier, toTier = 1, memsys.DefaultTier
	} else {
		fromTier, toTier = memsys.DefaultTier, ctx.AS.SpillTier()
	}
	pageBytes := ctx.AS.LiveView().PageBytes
	picked := refPickPages(nil, d.DeltaP, limitBytes, pageBytes, 4096, func(offer func(pages.PageID, float64) bool) {
		const maxScan = 32768
		tier := ctx.AS.LiveView().Tier
		scanned := 0
		for b := numBins - 1; b >= 0; b-- {
			for _, id := range s.bins[b] {
				scanned++
				if scanned > maxScan {
					return
				}
				if memsys.TierID(tier[id]) == fromTier && !offer(id, s.tracker.Probability(id)) {
					return
				}
			}
		}
	})
	for _, id := range picked {
		if toTier == memsys.DefaultTier && !s.ensureDefaultFree(ctx, pageBytes, false) {
			return
		}
		if err := ctx.Migrator.Move(id, toTier); errors.Is(err, migrate.ErrLimit) {
			return
		}
	}
}

// walkStep is one quantum of the equivalence scenario: quanta budget
// refills (a fault window, when set, covering the last), then one
// Colloid decision.
type walkStep struct {
	mode   core.Mode
	deltaP float64
	quanta int
	fault  bool
	kind   migrate.FaultKind
}

var walkScenario = []walkStep{
	{mode: core.Promote, deltaP: 0.6, quanta: 40}, // deep walk, a victim per promotion
	{mode: core.Promote, deltaP: 0.3, quanta: 1},  // the budget runs out mid-walk
	{mode: core.Demote, deltaP: 0.2, quanta: 5},
	{mode: core.Promote, deltaP: 0.4, quanta: 3, fault: true, kind: migrate.FaultStall},
	{mode: core.Demote, deltaP: 0.2, quanta: 3, fault: true, kind: migrate.FaultStall},
	{mode: core.Promote, deltaP: 0.4, quanta: 3, fault: true, kind: migrate.FaultFail},
	{mode: core.Demote, deltaP: 0.2, quanta: 3, fault: true, kind: migrate.FaultFail},
	{mode: core.Promote, deltaP: 0.6, quanta: 40},
	{mode: core.Promote, deltaP: 0.3, quanta: 1},
}

// The walk that moves each page as the picker takes it places pages
// exactly as picking the whole set first and moving it after did: on
// twin systems over seeds 1-20, exact and region/64 heat, a full
// default tier whose victims come from bins the walk has yet to reach,
// budgets that run out mid-walk, stall and fail fault windows and both
// directions, the tiers, migration and fault totals and the RNG stream
// agree after every step.
func TestColloidWalkMatchesPickThenMove(t *testing.T) {
	var binnedVictims, bottomPromotions, budgetRunouts int
	var failed, partial int64
	for _, spec := range []heat.Spec{{}, {Kind: heat.Region, RegionPages: 64}} {
		for seed := uint64(1); seed <= 20; seed++ {
			ref, refCtx := walkSystem(t, seed, spec)
			s, ctx := walkSystem(t, seed, spec)
			refRNG, rng := stats.NewRNG(seed+3), stats.NewRNG(seed+3)
			for i, st := range walkScenario {
				label := fmt.Sprintf("%s seed %d step %d (%v)", spec, seed, i, st.mode)
				for _, c := range []*sim.Context{refCtx, ctx} {
					for q := 0; q < st.quanta; q++ {
						if st.fault && q == st.quanta-1 {
							c.Migrator.InjectFault(st.kind, 1)
						}
						c.Migrator.BeginQuantum(c.QuantumSec)
					}
				}
				before := slices.Clone(ctx.AS.LiveView().Tier)
				d := core.Decision{Mode: st.mode, DeltaP: st.deltaP, MigrationLimitBytesPerSec: 1e15}
				refMigrateColloid(ref, refCtx, d)
				s.walk(ctx, d)
				compareTwins(t, label, refCtx, ctx)
				if len(s.victims) != 0 {
					t.Fatalf("%s: %d victims still marked after the walk", label, len(s.victims))
				}
				after := ctx.AS.LiveView().Tier
				for id := range after {
					wasDefault := memsys.TierID(before[id]) == memsys.DefaultTier
					isDefault := memsys.TierID(after[id]) == memsys.DefaultTier
					switch {
					case wasDefault && !isDefault && st.mode == core.Promote && s.state[id].bin != 0:
						binnedVictims++
					case !wasDefault && isDefault && s.state[id].bin == 1:
						bottomPromotions++
					}
				}
				if ctx.Migrator.Budget() < walkPageBytes {
					budgetRunouts++
				}
				reheat(ref, refCtx, refRNG, 2)
				reheat(s, ctx, rng, 2)
			}
			if a, b := refCtx.RNG.Uint64(), ctx.RNG.Uint64(); a != b {
				t.Fatalf("%s seed %d: next RNG draw %x, reference %x", spec, seed, b, a)
			}
			f, p := ctx.Migrator.FaultTotals()
			failed += f
			partial += p
		}
	}
	// The scenario must reach what it claims to cover.
	if binnedVictims == 0 || bottomPromotions == 0 || budgetRunouts == 0 || failed == 0 || partial == 0 {
		t.Fatalf("scenario coverage: %d binned victims, %d promotions from the lowest bin, %d budget run-outs, %d failed moves, %d partial bytes",
			binnedVictims, bottomPromotions, budgetRunouts, failed, partial)
	}
}

// compareTwins fails unless the two contexts agree on every page's
// tier, the migration totals, the fault totals and the budget left.
func compareTwins(t *testing.T, label string, ref, got *sim.Context) {
	t.Helper()
	if !slices.Equal(ref.AS.LiveView().Tier, got.AS.LiveView().Tier) {
		t.Fatalf("%s: tiers differ from the reference", label)
	}
	var rt, gt [4]int64
	rt[0], rt[1], rt[2], rt[3] = ref.Migrator.Totals()
	gt[0], gt[1], gt[2], gt[3] = got.Migrator.Totals()
	if rt != gt {
		t.Fatalf("%s: migration totals %v, reference %v", label, gt, rt)
	}
	rf, rp := ref.Migrator.FaultTotals()
	gf, gp := got.Migrator.FaultTotals()
	if rf != gf || rp != gp {
		t.Fatalf("%s: fault totals (%d, %d), reference (%d, %d)", label, gf, gp, rf, rp)
	}
	if ref.Migrator.Budget() != got.Migrator.Budget() {
		t.Fatalf("%s: budget left %d, reference %d", label, got.Migrator.Budget(), ref.Migrator.Budget())
	}
}

// walkFixture replays one Promote walk of a tenant shaped like a
// cluster-100 HeMem tenant (2,000 pages of 64 KiB, a full default
// tier) from the same placement, budget and RNG state each time. Each
// promotion demotes a victim first, and the walk ends when deltaP is
// met, with budget to spare.
type walkFixture struct {
	s     *System
	ctx   *sim.Context
	tiers []uint8
	rng   stats.RNG
	d     core.Decision
}

func newWalkFixture(tb testing.TB) *walkFixture {
	s, ctx := walkSystem(tb, 1, heat.Spec{})
	return &walkFixture{
		s:     s,
		ctx:   ctx,
		tiers: slices.Clone(ctx.AS.LiveView().Tier),
		rng:   *ctx.RNG,
		d:     core.Decision{Mode: core.Promote, DeltaP: 0.3, MigrationLimitBytesPerSec: 1e15},
	}
}

// engine returns a fresh migration engine holding 20 quanta of budget.
func (f *walkFixture) engine() *migrate.Engine {
	m := migrate.NewEngine(f.ctx.AS, 2, walkQuantumPages*walkPageBytes/f.ctx.QuantumSec)
	for q := 0; q < 20; q++ {
		m.BeginQuantum(f.ctx.QuantumSec)
	}
	return m
}

// restore puts the placement and the RNG back and installs m.
func (f *walkFixture) restore(tb testing.TB, m *migrate.Engine) {
	*f.ctx.RNG = f.rng
	f.ctx.Migrator = m
	// Out of the default tier first, so the moves in find room.
	for _, into := range []bool{false, true} {
		for id, b := range f.tiers {
			t := memsys.TierID(b)
			if (t == memsys.DefaultTier) == into && f.ctx.AS.Tier(pages.PageID(id)) != t {
				if err := f.ctx.AS.Move(pages.PageID(id), t); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
}

// Once its victim list has grown, the walk allocates nothing.
func TestColloidWalkAllocatesNothing(t *testing.T) {
	f := newWalkFixture(t)
	const runs = 10
	engines := make([]*migrate.Engine, runs+1) // AllocsPerRun adds a warm-up run
	for i := range engines {
		engines[i] = f.engine()
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		f.restore(t, engines[next])
		next++
		f.s.walk(f.ctx, f.d)
	})
	if allocs != 0 {
		t.Fatalf("walk allocates %v times", allocs)
	}
}

// BenchmarkColloidWalk times the fixture's walk, restoring its state
// outside the timer, and reports its allocations.
func BenchmarkColloidWalk(b *testing.B) {
	f := newWalkFixture(b)
	f.restore(b, f.engine())
	f.s.walk(f.ctx, f.d) // grows the victim list once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f.restore(b, f.engine())
		b.StartTimer()
		f.s.walk(f.ctx, f.d)
	}
}
