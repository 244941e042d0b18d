package migrate

import (
	"errors"
	"reflect"
	"testing"

	"colloid/internal/memsys"
	"colloid/internal/obs"
	"colloid/internal/pages"
)

func TestInjectFaultTakesEffectNextQuantum(t *testing.T) {
	as := testSpace(t)
	e := NewEngine(as, 2, 0) // unlimited budget
	e.BeginQuantum(0.1)
	e.InjectFault(FaultStall, 1)
	if e.FaultActive() {
		t.Fatal("fault active before the next BeginQuantum")
	}
	// The current quantum still migrates normally.
	if err := e.Move(pageIn(t, as, 0), 1); err != nil {
		t.Fatal(err)
	}
	e.BeginQuantum(0.1)
	if !e.FaultActive() {
		t.Fatal("fault not active in its window")
	}
	e.BeginQuantum(0.1)
	if e.FaultActive() {
		t.Fatal("one-quantum fault still active")
	}
}

func TestFaultStallRejectsForFree(t *testing.T) {
	as := testSpace(t)
	e := NewEngine(as, 2, 100*float64(memsys.MiB))
	e.InjectFault(FaultStall, 1)
	e.BeginQuantum(0.1)
	budget := e.Budget()
	id := pageIn(t, as, 0)
	err := e.Move(id, 1)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("stalled move error = %v, want ErrInjected", err)
	}
	if as.Tier(id) != 0 {
		t.Fatal("stalled move relocated the page")
	}
	if e.Budget() != budget {
		t.Fatalf("stall consumed budget: %d -> %d", budget, e.Budget())
	}
	if e.QuantumBytes() != 0 {
		t.Fatalf("stall charged traffic: %d bytes", e.QuantumBytes())
	}
	// MoveForced obeys the fault window too: the engine is down, not
	// merely throttled.
	if err := e.MoveForced(id, 1); !errors.Is(err, ErrInjected) {
		t.Fatalf("forced move during stall = %v, want ErrInjected", err)
	}
	failed, partial := e.FaultTotals()
	if failed != 2 || partial != 0 {
		t.Fatalf("FaultTotals = (%d, %d), want (2, 0)", failed, partial)
	}
}

func TestFaultFailBurnsBudgetAndTraffic(t *testing.T) {
	as := testSpace(t)
	e := NewEngine(as, 2, 100*float64(memsys.MiB))
	e.InjectFault(FaultFail, 1)
	e.BeginQuantum(0.1)
	budget := e.Budget()
	id := pageIn(t, as, 0)
	if err := e.Move(id, 1); !errors.Is(err, ErrInjected) {
		t.Fatalf("failed move error = %v, want ErrInjected", err)
	}
	if as.Tier(id) != 0 {
		t.Fatal("failed move relocated the page")
	}
	if got := e.Budget(); got != budget-pages.HugePageBytes {
		t.Fatalf("budget after aborted copy = %d, want %d", got, budget-pages.HugePageBytes)
	}
	// The aborted copy's bytes hit the interconnect on both sides.
	load := e.TrafficLoad()
	if load[0].Total() <= 0 || load[1].Total() <= 0 {
		t.Fatalf("aborted copy left no traffic: %+v", load)
	}
	failed, partial := e.FaultTotals()
	if failed != 1 || partial != pages.HugePageBytes {
		t.Fatalf("FaultTotals = (%d, %d), want (1, %d)", failed, partial, pages.HugePageBytes)
	}
	// The page stayed put, so Totals must not count a completed move.
	if _, moves, _, _ := e.Totals(); moves != 0 {
		t.Fatalf("aborted copy counted as %d completed moves", moves)
	}
}

func TestInjectFaultClearAndReplace(t *testing.T) {
	as := testSpace(t)
	e := NewEngine(as, 2, 0)
	e.InjectFault(FaultStall, 100)
	e.InjectFault(FaultStall, 0) // clear before it ever starts
	e.BeginQuantum(0.1)
	if e.FaultActive() {
		t.Fatal("cleared fault still active")
	}
	if err := e.Move(pageIn(t, as, 0), 1); err != nil {
		t.Fatal(err)
	}
}

// Clearing a fault mid-quantum takes effect immediately: the rest of
// the quantum migrates normally and FaultTotals stops growing. It used
// to leave faultActive set until the next BeginQuantum, so a "cleared"
// outage kept rejecting moves — and the rejects inflated FaultTotals.
func TestInjectFaultClearMidQuantum(t *testing.T) {
	as := testSpace(t)
	e := NewEngine(as, 2, 0)
	e.InjectFault(FaultStall, 3)
	e.BeginQuantum(0.1)
	if !e.FaultActive() {
		t.Fatal("fault not active in its window")
	}
	id := pageIn(t, as, 0)
	if err := e.Move(id, 1); !errors.Is(err, ErrInjected) {
		t.Fatalf("move in fault window = %v, want ErrInjected", err)
	}
	e.InjectFault(FaultStall, 0) // outage repaired mid-quantum
	if e.FaultActive() {
		t.Fatal("cleared fault still active in the same quantum")
	}
	if err := e.Move(id, 1); err != nil {
		t.Fatalf("move after mid-quantum clear: %v", err)
	}
	if failed, _ := e.FaultTotals(); failed != 1 {
		t.Fatalf("FaultTotals.failed = %d, want 1 (clear must stop the count)", failed)
	}
	// The cleared window is gone for good, not merely suspended.
	e.BeginQuantum(0.1)
	if e.FaultActive() {
		t.Fatal("cleared fault resurrected by the next BeginQuantum")
	}
}

// A mid-quantum stall expiry must not leak into the next quantum's
// accounting: after the repair every move applies, and FaultTotals
// counts only the attempts made inside the fault window.
func TestFaultExpiryDoesNotLeakIntoNextQuantum(t *testing.T) {
	as := testSpace(t)
	e := NewEngine(as, 2, 0)
	var ids []pages.PageID
	as.ForEachLive(func(p pages.Page) {
		if p.Tier == 0 && len(ids) < 4 {
			ids = append(ids, p.ID)
		}
	})
	e.InjectFault(FaultStall, 1)
	e.BeginQuantum(0.1)
	for _, id := range ids {
		if err := e.Move(id, 1); !errors.Is(err, ErrInjected) {
			t.Fatalf("move in fault window = %v, want ErrInjected", err)
		}
	}
	e.InjectFault(FaultStall, 0) // repair mid-quantum
	e.BeginQuantum(0.1)
	for _, id := range ids {
		if err := e.Move(id, 1); err != nil {
			t.Fatalf("post-repair move of page %d: %v", id, err)
		}
	}
	if failed, _ := e.FaultTotals(); failed != int64(len(ids)) {
		t.Fatalf("FaultTotals.failed = %d, want %d (only the faulted quantum)", failed, len(ids))
	}
}

// FaultFail burns proactive budget for aborted proactive copies only:
// a forced (capacity-pressure) move never consumes the budget, so its
// aborted copy must not drain it either — though the wasted bytes still
// hit the interconnect and FaultTotals.
func TestFaultFailForcedMoveKeepsBudget(t *testing.T) {
	as := testSpace(t)
	e := NewEngine(as, 2, 100*float64(memsys.MiB))
	e.InjectFault(FaultFail, 1)
	e.BeginQuantum(0.1)
	budget := e.Budget()
	id := pageIn(t, as, 0)
	if err := e.MoveForced(id, 1); !errors.Is(err, ErrInjected) {
		t.Fatalf("forced move during FaultFail = %v, want ErrInjected", err)
	}
	if got := e.Budget(); got != budget {
		t.Fatalf("aborted forced copy drained budget: %d -> %d", budget, got)
	}
	failed, partial := e.FaultTotals()
	if failed != 1 || partial != pages.HugePageBytes {
		t.Fatalf("FaultTotals = (%d, %d), want (1, %d)", failed, partial, pages.HugePageBytes)
	}
	if e.QuantumBytes() == 0 {
		t.Fatal("aborted forced copy left no interconnect traffic")
	}
}

func TestFaultKindString(t *testing.T) {
	if FaultStall.String() != "stall" || FaultFail.String() != "fail" {
		t.Fatalf("FaultKind strings: %q, %q", FaultStall, FaultFail)
	}
}

// A throttled or FaultFail move emits at most one event per quantum, and
// these are the quanta a starved or faulted system repeats: with no
// trace to keep the event, the move must allocate nothing. A traced
// registry still records both events with their fields.
func TestRejectedMovesAllocateNothing(t *testing.T) {
	as := testSpace(t)
	id := pageIn(t, as, 0)
	moves := func(reg *obs.Registry) (throttle, fail func()) {
		throttled := NewEngine(as, 2, 1) // 1 B/s: no page ever fits
		throttled.SetObs(reg)
		failing := NewEngine(as, 2, 0)
		failing.SetObs(reg)
		failing.InjectFault(FaultFail, 1000)
		throttle = func() {
			throttled.BeginQuantum(0.1)
			if err := throttled.Move(id, 1); !errors.Is(err, ErrLimit) {
				t.Fatalf("throttled move = %v, want ErrLimit", err)
			}
		}
		fail = func() {
			failing.BeginQuantum(0.1)
			if err := failing.Move(id, 1); !errors.Is(err, ErrInjected) {
				t.Fatalf("faulted move = %v, want ErrInjected", err)
			}
		}
		return throttle, fail
	}
	for name, reg := range map[string]*obs.Registry{
		"nil":      nil,
		"untraced": obs.NewRegistry(),
		"scoped":   obs.NewRegistry().Scoped("tenant.a."),
	} {
		throttle, fail := moves(reg)
		if n := testing.AllocsPerRun(50, throttle); n != 0 {
			t.Errorf("%s registry: throttled Move makes %v allocations, want 0", name, n)
		}
		if n := testing.AllocsPerRun(50, fail); n != 0 {
			t.Errorf("%s registry: FaultFail Move makes %v allocations, want 0", name, n)
		}
	}

	root := obs.NewRegistry()
	root.EnableTrace(0)
	root.SetTime(1.5)
	throttle, fail := moves(root.Scoped("tenant.a."))
	throttle()
	fail()
	want := []obs.Event{
		{TimeSec: 1.5, Kind: "tenant.a." + obs.EvMigrationThrottled, Fields: []obs.Field{
			obs.F("want_bytes", float64(pages.HugePageBytes)), obs.F("budget_bytes", 0)}},
		{TimeSec: 1.5, Kind: "tenant.a." + obs.EvMigrationStall, Fields: []obs.Field{
			obs.F("kind", float64(FaultFail)), obs.F("remaining_quanta", 999)}},
	}
	if got := root.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("traced events = %+v, want %+v", got, want)
	}
}
