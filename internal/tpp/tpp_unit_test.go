package tpp

import (
	"math"
	"testing"

	"colloid/internal/access"
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
	m := migrate.NewEngine(as, 2, 2.5e9)
	m.BeginQuantum(0.01)
	return &sim.Context{
		QuantumSec: 0.01,
		AS:         as,
		Topo:       topo,
		Migrator:   m,
		RNG:        stats.NewRNG(1),
	}
}

func TestFaultProbabilityEstimator(t *testing.T) {
	s := New(Config{})
	s.rate = []float64{1e8, 5e7}
	// ttf = 1 ms on a tier at 1e8 req/s -> p = 1/(1e-3 * 1e8) = 1e-5.
	got := s.faultProbability(access.Fault{TimeToFaultSec: 1e-3}, 0)
	if math.Abs(got-1e-5)/1e-5 > 1e-9 {
		t.Fatalf("p = %v, want 1e-5", got)
	}
	// Zero-ttf faults are clamped, not infinite.
	if got := s.faultProbability(access.Fault{TimeToFaultSec: 0}, 0); math.IsInf(got, 0) {
		t.Fatal("zero ttf gave infinite probability")
	}
	// Unmeasured tier: returns 1 (too hot to move).
	if got := s.faultProbability(access.Fault{TimeToFaultSec: 1e-3}, 1); s.rate[1] > 0 && got <= 0 {
		t.Fatal("estimator broken for measured alternate tier")
	}
	s.rate = nil
	if got := s.faultProbability(access.Fault{TimeToFaultSec: 1e-3}, 0); got != 1 {
		t.Fatalf("unmeasured tier p = %v, want 1", got)
	}
}

func TestThresholdAdaptationDirections(t *testing.T) {
	ctx := unitContext(t, 8)
	s := New(Config{})
	// Saturated promotions: threshold tightens.
	s.promotedQuantum = int64(2.5e9) // == 1s budget at 2.5 GB/s
	s.onQuantum(ctx)
	if s.ttfThresh >= hotTTFSec {
		t.Fatalf("threshold did not tighten: %v", s.ttfThresh)
	}
	// Starved promotions: threshold loosens.
	prev := s.ttfThresh
	s.promotedQuantum = 0
	s.onQuantum(ctx)
	if s.ttfThresh <= prev {
		t.Fatalf("threshold did not loosen: %v", s.ttfThresh)
	}
	// Bounds hold under repeated adaptation.
	for i := 0; i < 100; i++ {
		s.promotedQuantum = 0
		s.onQuantum(ctx)
	}
	if s.ttfThresh > 10 {
		t.Fatalf("threshold above cap: %v", s.ttfThresh)
	}
	for i := 0; i < 200; i++ {
		s.promotedQuantum = int64(3e9)
		s.onQuantum(ctx)
	}
	if s.ttfThresh < 1e-4 {
		t.Fatalf("threshold below floor: %v", s.ttfThresh)
	}
}

func TestOnFaultVanillaPromotesOnlyHot(t *testing.T) {
	ctx := unitContext(t, 8)
	s := New(Config{})
	// Move a page to the alternate tier to be the fault target.
	id := pages.PageID(0)
	if err := ctx.AS.Move(id, 1); err != nil {
		t.Fatal(err)
	}
	// Cold fault (ttf above threshold): no promotion.
	s.onFaultVanilla(ctx, access.Fault{Page: id, TimeToFaultSec: 0.5})
	if ctx.AS.Tier(id) != 1 {
		t.Fatal("cold fault promoted")
	}
	// Hot fault: promoted.
	s.onFaultVanilla(ctx, access.Fault{Page: id, TimeToFaultSec: 1e-4})
	if ctx.AS.Tier(id) != memsys.DefaultTier {
		t.Fatal("hot fault not promoted")
	}
	if s.promotedQuantum != pages.HugePageBytes {
		t.Fatalf("promoted bytes = %d", s.promotedQuantum)
	}
}

func TestOnFaultColloidRespectsBudgetAndMode(t *testing.T) {
	ctx := unitContext(t, 8)
	s := New(Config{})
	id := pages.PageID(0)
	if err := ctx.AS.Move(id, 1); err != nil {
		t.Fatal(err)
	}
	s.rate = []float64{1e8, 1e8}
	fault := access.Fault{Page: id, TimeToFaultSec: 1e-3} // p = 1e-5

	// Hold mode: nothing happens.
	s.mode = 0 // core.Hold
	s.deltaPLeft = 1
	s.onFaultColloid(ctx, fault)
	if ctx.AS.Tier(id) != 1 {
		t.Fatal("promoted in hold mode")
	}

	// Promote mode with budget: promoted, budget decremented.
	s.mode = 1 // core.Promote
	s.deltaPLeft = 1e-4
	s.onFaultColloid(ctx, fault)
	if ctx.AS.Tier(id) != memsys.DefaultTier {
		t.Fatal("not promoted in promote mode")
	}
	if math.Abs(s.deltaPLeft-(1e-4-1e-5)) > 1e-12 {
		t.Fatalf("budget not decremented: %v", s.deltaPLeft)
	}

	// Budget smaller than the page's probability: skip.
	id2 := pages.PageID(1)
	if err := ctx.AS.Move(id2, 1); err != nil {
		t.Fatal(err)
	}
	s.deltaPLeft = 1e-6
	s.onFaultColloid(ctx, access.Fault{Page: id2, TimeToFaultSec: 1e-3})
	if ctx.AS.Tier(id2) != 1 {
		t.Fatal("promoted past the deltaP budget")
	}

	// Demote mode moves default-tier faulting pages out.
	s.mode = 2 // core.Demote
	s.deltaPLeft = 1
	s.onFaultColloid(ctx, access.Fault{Page: id, TimeToFaultSec: 1e-3})
	if ctx.AS.Tier(id) == memsys.DefaultTier {
		t.Fatal("not demoted in demote mode")
	}
}

func TestFindColdVictimPrefersLargestTTF(t *testing.T) {
	ctx := unitContext(t, 8)
	s := New(Config{})
	// Everything recently faulted with small ttf except one cold page.
	s.lastTTF = make([]float64, ctx.AS.NumPages())
	for id := range pages.PageID(ctx.AS.NumPages()) {
		s.lastTTF[id] = 1e-4
	}
	cold := pages.PageID(ctx.AS.NumPages() / 2)
	s.lastTTF[cold] = 0.5
	// Probing is random; run repeatedly and require the cold page wins
	// decisively when probed.
	wins := 0
	for i := 0; i < 50; i++ {
		if s.findColdVictim(ctx) == cold {
			wins++
		}
	}
	if wins == 0 {
		t.Fatal("coldest page never selected")
	}
	// A page that never faulted is colder than any that did.
	for i := range s.lastTTF {
		s.lastTTF[i] = -1
	}
	if s.findColdVictim(ctx) == pages.NoPage {
		t.Fatal("no victim among pages that never faulted")
	}
}
