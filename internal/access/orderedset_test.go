package access

import (
	"fmt"
	"testing"
	"testing/quick"

	"colloid/internal/pages"
)

func TestOrderedSetBasics(t *testing.T) {
	s := NewOrderedSet()
	if s.Len() != 0 || s.Contains(1) {
		t.Fatal("fresh set not empty")
	}
	s.Add(3)
	s.Add(1)
	s.Add(2)
	s.Add(1) // duplicate: no-op
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	var order []pages.PageID
	s.ForEach(func(id pages.PageID) Action {
		order = append(order, id)
		return Keep
	})
	want := []pages.PageID{3, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestOrderedSetRemove(t *testing.T) {
	s := NewOrderedSet()
	for i := pages.PageID(0); i < 5; i++ {
		s.Add(i)
	}
	s.Remove(2)
	s.Remove(99) // absent: no-op
	if s.Len() != 4 || s.Contains(2) {
		t.Fatalf("after remove: len=%d contains(2)=%v", s.Len(), s.Contains(2))
	}
	// Every remaining element still reachable and indexed correctly.
	seen := map[pages.PageID]bool{}
	s.ForEach(func(id pages.PageID) Action {
		seen[id] = true
		return Keep
	})
	for _, id := range []pages.PageID{0, 1, 3, 4} {
		if !seen[id] {
			t.Fatalf("element %d lost", id)
		}
	}
}

func TestOrderedSetForEachDrop(t *testing.T) {
	s := NewOrderedSet()
	for i := pages.PageID(0); i < 10; i++ {
		s.Add(i)
	}
	visited := 0
	s.ForEach(func(id pages.PageID) Action {
		visited++
		if id%2 == 0 {
			return Drop
		}
		return Keep
	})
	if visited != 10 {
		t.Fatalf("visited %d elements, want all 10", visited)
	}
	if s.Len() != 5 {
		t.Fatalf("len after drops = %d", s.Len())
	}
	s.ForEach(func(id pages.PageID) Action {
		if id%2 == 0 {
			t.Fatalf("even element %d survived", id)
		}
		return Keep
	})
}

func TestOrderedSetForEachStop(t *testing.T) {
	s := NewOrderedSet()
	for i := pages.PageID(0); i < 10; i++ {
		s.Add(i)
	}
	visited := 0
	s.ForEach(func(id pages.PageID) Action {
		visited++
		if visited == 3 {
			return Stop
		}
		return Keep
	})
	if visited != 3 {
		t.Fatalf("visited %d, want 3", visited)
	}
}

func TestOrderedSetClear(t *testing.T) {
	s := NewOrderedSet()
	s.Add(1)
	s.Add(2)
	s.Clear()
	if s.Len() != 0 || s.Contains(1) {
		t.Fatal("clear incomplete")
	}
	s.Add(7)
	if !s.Contains(7) || s.At(0) != 7 {
		t.Fatal("set unusable after clear")
	}
}

// Swap-remove moves the last element into the hole, so visit order
// after a removal is part of the policy-visible contract.
func TestOrderedSetSwapRemoveOrder(t *testing.T) {
	s := NewOrderedSet()
	for i := pages.PageID(0); i < 5; i++ {
		s.Add(i)
	}
	s.Remove(1)
	var order []pages.PageID
	s.ForEach(func(id pages.PageID) Action {
		order = append(order, id)
		return Keep
	})
	if fmt.Sprint(order) != "[0 4 2 3]" {
		t.Fatalf("order = %v, want [0 4 2 3]", order)
	}
}

// Property: set semantics match a reference map under random sequences
// of adds, removes and clears over IDs up to 0x3fff (so the dense index
// grows several times), iteration visits each member exactly once, and
// Contains agrees with the reference for every ID in [-1, max+2),
// NoPage included.
func TestOrderedSetMatchesReference(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewOrderedSet()
		ref := map[pages.PageID]bool{}
		maxID := pages.PageID(0)
		for _, op := range ops {
			id := pages.PageID(op & 0x3fff)
			switch op >> 14 {
			case 0, 1:
				s.Add(id)
				ref[id] = true
			case 2:
				// Remove a member when there is one, so swap-removes
				// actually move elements.
				if s.Len() > 0 {
					id = s.At(int(id) % s.Len())
				}
				s.Remove(id)
				delete(ref, id)
			default:
				if id&7 == 0 {
					s.Clear()
					clear(ref)
				} else {
					s.Remove(id)
					delete(ref, id)
				}
			}
			if id > maxID {
				maxID = id
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		seen := map[pages.PageID]int{}
		s.ForEach(func(id pages.PageID) Action {
			seen[id]++
			return Keep
		})
		if len(seen) != len(ref) {
			return false
		}
		for id, n := range seen {
			if n != 1 || !ref[id] {
				return false
			}
		}
		for id := pages.NoPage; id < maxID+2; id++ {
			if s.Contains(id) != ref[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
