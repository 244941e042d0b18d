package migrate

import (
	"errors"
	"testing"

	"colloid/internal/memsys"
	"colloid/internal/pages"
)

func testSpace(t *testing.T) *pages.AddressSpace {
	t.Helper()
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	as, err := pages.NewAddressSpace(topo, 72*memsys.GiB, pages.HugePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

func pageIn(t *testing.T, as *pages.AddressSpace, tier memsys.TierID) pages.PageID {
	t.Helper()
	id := pages.NoPage
	as.ForEachLive(func(p pages.Page) {
		if p.Tier == tier && id == pages.NoPage {
			id = p.ID
		}
	})
	if id == pages.NoPage {
		t.Fatalf("no page in tier %d", tier)
	}
	return id
}

func TestMoveWithinBudget(t *testing.T) {
	as := testSpace(t)
	e := NewEngine(as, 2, 100*float64(memsys.MiB)) // 100 MiB/s
	e.BeginQuantum(0.1)                            // 10 MiB budget = 5 huge pages
	if e.Budget() != 10*memsys.MiB {
		t.Fatalf("budget = %d", e.Budget())
	}
	id := pageIn(t, as, 1)
	// Default tier is full (first-fit); demote one page first.
	victim := pageIn(t, as, 0)
	if err := e.Move(victim, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Move(id, 0); err != nil {
		t.Fatal(err)
	}
	if as.Tier(id) != 0 {
		t.Fatal("page not promoted")
	}
	if e.QuantumBytes() != 2*pages.HugePageBytes {
		t.Fatalf("quantum bytes = %d", e.QuantumBytes())
	}
}

func TestMoveHitsLimit(t *testing.T) {
	as := testSpace(t)
	e := NewEngine(as, 2, float64(pages.HugePageBytes)) // 1 page/sec
	e.BeginQuantum(1)
	a := pageIn(t, as, 0)
	if err := e.Move(a, 1); err != nil {
		t.Fatal(err)
	}
	b := pageIn(t, as, 0)
	if err := e.Move(b, 1); !errors.Is(err, ErrLimit) {
		t.Fatalf("second move error = %v, want ErrLimit", err)
	}
}

func TestMoveCapacityError(t *testing.T) {
	as := testSpace(t)
	e := NewEngine(as, 2, 0)
	e.BeginQuantum(1)
	id := pageIn(t, as, 1)
	// Default tier starts full under first-fit.
	if err := e.Move(id, 0); !errors.Is(err, ErrCapacity) {
		t.Fatalf("error = %v, want ErrCapacity", err)
	}
}

func TestMoveForcedBypassesLimit(t *testing.T) {
	as := testSpace(t)
	e := NewEngine(as, 2, 1) // 1 byte/sec: budget is effectively zero
	e.BeginQuantum(1)
	id := pageIn(t, as, 0)
	if err := e.MoveForced(id, 1); err != nil {
		t.Fatal(err)
	}
	if as.Tier(id) != 1 {
		t.Fatal("forced move did not apply")
	}
}

// TestMoveForcedDoesNotConsumeBudget is the regression test for the
// forced-migration accounting bug: a forced capacity-pressure demotion
// must leave the proactive budget untouched, so a forced demotion
// followed by a proactive promotion within the same quantum succeeds
// even when the budget is exactly one page.
func TestMoveForcedDoesNotConsumeBudget(t *testing.T) {
	as := testSpace(t)
	e := NewEngine(as, 2, float64(pages.HugePageBytes)) // budget: 1 page/quantum
	e.BeginQuantum(1)
	if e.Budget() != pages.HugePageBytes {
		t.Fatalf("budget = %d, want one page", e.Budget())
	}
	victim := pageIn(t, as, 0)
	if err := e.MoveForced(victim, 1); err != nil {
		t.Fatal(err)
	}
	if e.Budget() != pages.HugePageBytes {
		t.Fatalf("forced move consumed budget: %d left, want %d", e.Budget(), pages.HugePageBytes)
	}
	hot := pageIn(t, as, 1)
	if err := e.Move(hot, 0); err != nil {
		t.Fatalf("proactive promotion after forced demotion: %v", err)
	}
	if e.Budget() != 0 {
		t.Fatalf("budget after proactive move = %d, want 0", e.Budget())
	}
	// Both moves are still accounted as traffic and totals.
	if e.QuantumBytes() != 2*pages.HugePageBytes {
		t.Fatalf("quantum bytes = %d, want both moves charged", e.QuantumBytes())
	}
	bytes, moves, promoted, demoted := e.Totals()
	if bytes != 2*pages.HugePageBytes || moves != 2 || promoted != pages.HugePageBytes || demoted != pages.HugePageBytes {
		t.Fatalf("totals = %d/%d/%d/%d", bytes, moves, promoted, demoted)
	}
}

// TestBudgetTokenBucketCap checks that unused budget accrues across
// quanta but never beyond budgetCapSeconds' worth.
func TestBudgetTokenBucketCap(t *testing.T) {
	as := testSpace(t)
	limit := 100 * float64(memsys.MiB)
	e := NewEngine(as, 2, limit)
	for i := 0; i < 10; i++ {
		e.BeginQuantum(1)
	}
	want := int64(limit * budgetCapSeconds)
	if e.Budget() != want {
		t.Fatalf("accrued budget = %d, want cap %d", e.Budget(), want)
	}
}

// TestExactBudgetBoundary: a move whose size equals the remaining
// budget succeeds and drains it to zero; the next move is throttled.
func TestExactBudgetBoundary(t *testing.T) {
	as := testSpace(t)
	e := NewEngine(as, 2, float64(pages.HugePageBytes))
	e.BeginQuantum(1)
	a := pageIn(t, as, 0)
	if err := e.Move(a, 1); err != nil {
		t.Fatalf("exact-budget move: %v", err)
	}
	if e.Budget() != 0 {
		t.Fatalf("budget after exact-budget move = %d", e.Budget())
	}
	b := pageIn(t, as, 0)
	if err := e.Move(b, 1); !errors.Is(err, ErrLimit) {
		t.Fatalf("move on empty budget = %v, want ErrLimit", err)
	}
}

func TestTrafficLoadChargesBothTiers(t *testing.T) {
	as := testSpace(t)
	e := NewEngine(as, 2, 0)
	e.BeginQuantum(0.01)
	id := pageIn(t, as, 0)
	if err := e.Move(id, 1); err != nil {
		t.Fatal(err)
	}
	load := e.TrafficLoad()
	wantBps := float64(pages.HugePageBytes) / 0.01
	if load[0].SeqBytes != wantBps || load[1].SeqBytes != wantBps {
		t.Fatalf("traffic load = %+v, want %v on both tiers", load, wantBps)
	}
	// New quantum resets accounting.
	e.BeginQuantum(0.01)
	load = e.TrafficLoad()
	if load[0].Total() != 0 || load[1].Total() != 0 {
		t.Fatal("traffic not reset at quantum start")
	}
}

func TestTotals(t *testing.T) {
	as := testSpace(t)
	e := NewEngine(as, 2, 0)
	e.BeginQuantum(1)
	down := pageIn(t, as, 0)
	if err := e.Move(down, 1); err != nil {
		t.Fatal(err)
	}
	up := pageIn(t, as, 1)
	if err := e.Move(up, 0); err != nil {
		t.Fatal(err)
	}
	bytes, moves, promoted, demoted := e.Totals()
	if bytes != 2*pages.HugePageBytes || moves != 2 {
		t.Fatalf("totals = %d bytes, %d moves", bytes, moves)
	}
	if promoted != pages.HugePageBytes || demoted != pages.HugePageBytes {
		t.Fatalf("promoted/demoted = %d/%d", promoted, demoted)
	}
}

func TestMoveNoopFree(t *testing.T) {
	as := testSpace(t)
	e := NewEngine(as, 2, float64(pages.HugePageBytes))
	e.BeginQuantum(1)
	id := pageIn(t, as, 0)
	if err := e.Move(id, 0); err != nil {
		t.Fatal(err)
	}
	if e.QuantumBytes() != 0 {
		t.Fatal("no-op move consumed budget")
	}
}

func TestUnlimitedEngine(t *testing.T) {
	as := testSpace(t)
	e := NewEngine(as, 2, 0)
	e.BeginQuantum(0.001)
	moved := 0
	as.ForEachLive(func(p pages.Page) {
		if p.Tier == 0 && moved < 100 {
			if err := e.Move(p.ID, 1); err != nil {
				t.Fatalf("move %d: %v", moved, err)
			}
			moved++
		}
	})
	if moved != 100 {
		t.Fatalf("moved %d pages", moved)
	}
}
