package access

import (
	"fmt"

	"colloid/internal/pages"
)

// OrderedSet is a set of page IDs with O(1) add/remove/contains and a
// deterministic iteration order (insertion order, perturbed only by
// swap-removes, which are themselves deterministic given a
// deterministic operation sequence). Go map iteration order is
// randomized per run, which silently breaks simulation reproducibility
// whenever a policy's migration cutoff depends on visit order; every
// such worklist uses this instead, or, as HeMem's lists do, a page-ID
// slice whose positions live in a per-page record. The zero value is an
// empty set.
type OrderedSet struct {
	items []pages.PageID
	// pos[id] is id's index in items plus one; 0 means absent. It is
	// indexed by page ID and grows on Add, so a set that is never
	// filled allocates nothing.
	pos []int32
}

// NewOrderedSet returns an empty set.
func NewOrderedSet() *OrderedSet { return &OrderedSet{} }

// Len returns the element count.
func (s *OrderedSet) Len() int { return len(s.items) }

// Contains reports membership; any ID, NoPage included, may be probed.
func (s *OrderedSet) Contains(id pages.PageID) bool {
	return id >= 0 && int(id) < len(s.pos) && s.pos[id] != 0
}

// Add inserts id; no-op if present.
func (s *OrderedSet) Add(id pages.PageID) {
	if id < 0 {
		panic(fmt.Sprintf("access: OrderedSet.Add of invalid page id %d", id))
	}
	if int(id) >= len(s.pos) {
		n := int(id) + 1
		if n < 2*len(s.pos) {
			n = 2 * len(s.pos)
		}
		grown := make([]int32, n)
		copy(grown, s.pos)
		s.pos = grown
	} else if s.pos[id] != 0 {
		return
	}
	s.items = append(s.items, id)
	s.pos[id] = int32(len(s.items))
}

// Remove deletes id via swap-remove; no-op if absent.
func (s *OrderedSet) Remove(id pages.PageID) {
	if !s.Contains(id) {
		return
	}
	i := s.pos[id] - 1
	last := len(s.items) - 1
	moved := s.items[last]
	s.items[i] = moved
	s.pos[moved] = i + 1
	s.items = s.items[:last]
	s.pos[id] = 0
}

// Clear empties the set, retaining capacity; only the members' index
// slots are reset.
func (s *OrderedSet) Clear() {
	for _, id := range s.items {
		s.pos[id] = 0
	}
	s.items = s.items[:0]
}

// Action is a visitor's verdict on the current element.
type Action int

// Visitor verdicts: Keep retains the element and continues, Drop
// removes it and continues, Stop terminates the iteration.
const (
	Keep Action = iota
	Drop
	Stop
)

// ForEach visits elements in deterministic order; the visitor's Action
// controls removal and termination. Dropping swap-fills the hole and
// the iteration re-examines the hole index, so every element is
// visited exactly once.
func (s *OrderedSet) ForEach(fn func(id pages.PageID) Action) {
	for i := 0; i < len(s.items); {
		switch fn(s.items[i]) {
		case Drop:
			s.Remove(s.items[i])
		case Stop:
			return
		default:
			i++
		}
	}
}

// At returns the element at position i (for random probing).
func (s *OrderedSet) At(i int) pages.PageID { return s.items[i] }
