// Package paged provides a paged arena allocator used to instrument
// the real applications (internal/apps/...): objects are laid out on
// simulated pages, every object access bumps its page's counter, and
// the resulting per-page access histogram becomes the page-granularity
// workload profile the memory simulator consumes.
//
// This is the bridge between really-executed application logic (a
// PageRank iteration, an OCC transaction, a cache GET) and the tiered
// memory simulation: the tiering systems under test see exactly what
// they would see on hardware — a page-level access distribution.
package paged

import (
	"fmt"
	"sync/atomic"
)

// Ref locates an allocation in the arena.
type Ref struct {
	// Page is the index of the first page of the allocation.
	Page int32
	// Off is the byte offset within that page.
	Off int32
	// Size is the allocation size in bytes.
	Size int32
}

// Valid reports whether the ref points at an allocation.
func (r Ref) Valid() bool { return r.Size > 0 }

// Arena is a bump allocator over fixed-size pages with per-page access
// accounting. Touch* methods are safe for concurrent use (atomic
// counters); Alloc is not and must be serialized by the caller.
type Arena struct {
	pageBytes int32
	counts    []int64
	nextPage  int32
	nextOff   int32
	allocated int64
}

// NewArena returns an arena with the given page size (e.g. 2 MiB to
// match the simulator's placement granularity, or smaller in tests).
func NewArena(pageBytes int64) *Arena {
	if pageBytes <= 0 || pageBytes > 1<<30 {
		panic("paged: page size out of range")
	}
	return &Arena{pageBytes: int32(pageBytes)}
}

// Pages returns the number of pages the arena spans so far.
func (a *Arena) Pages() int { return int(a.nextPage) + boolToInt(a.nextOff > 0) }

// AllocatedBytes returns the total bytes handed out.
func (a *Arena) AllocatedBytes() int64 { return a.allocated }

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Alloc reserves size bytes and returns its ref. Allocations larger
// than a page span consecutive pages; allocations never straddle a
// page boundary unless they exceed the remaining space, in which case
// the allocator bumps to the next page (like a slab allocator keeping
// objects page-local for TLB friendliness).
func (a *Arena) Alloc(size int64) (Ref, error) {
	if size <= 0 {
		return Ref{}, fmt.Errorf("paged: alloc of %d bytes", size)
	}
	if size > int64(a.pageBytes) {
		// Large object: spans whole pages, starts page-aligned.
		if a.nextOff > 0 {
			a.nextPage++
			a.nextOff = 0
		}
		pagesNeeded := int32((size + int64(a.pageBytes) - 1) / int64(a.pageBytes))
		r := Ref{Page: a.nextPage, Off: 0, Size: int32min(size)}
		a.nextPage += pagesNeeded
		a.allocated += size
		a.ensure(int(a.nextPage))
		return r, nil
	}
	if int64(a.nextOff)+size > int64(a.pageBytes) {
		a.nextPage++
		a.nextOff = 0
	}
	r := Ref{Page: a.nextPage, Off: a.nextOff, Size: int32(size)}
	a.nextOff += int32(size)
	a.allocated += size
	a.ensure(int(a.nextPage) + 1)
	return r, nil
}

// int32min clamps a size into the Ref field (refs only need sizes for
// touch-spanning; multi-GB single objects are not used by the apps).
func int32min(v int64) int32 {
	const max = 1<<31 - 1
	if v > max {
		return max
	}
	return int32(v)
}

func (a *Arena) ensure(pages int) {
	for len(a.counts) < pages {
		a.counts = append(a.counts, 0)
	}
}

// Touch records one access to the allocation (its first page).
func (a *Arena) Touch(r Ref) {
	if !r.Valid() || int(r.Page) >= len(a.counts) {
		return
	}
	atomic.AddInt64(&a.counts[r.Page], 1)
}

// TouchRange records an access covering bytes of the allocation,
// charging every page the range spans. The range is clamped to the
// allocation's size, and a zero-byte access still charges the first
// page, matching Touch: on hardware, resolving the address faults the
// page regardless of how many bytes the instruction then reads.
func (a *Arena) TouchRange(r Ref, bytes int64) {
	a.TouchRangeAt(r, 0, bytes)
}

// TouchRangeAt records an access to bytes starting offsetBytes into
// the allocation (for instrumenting slices of large arrays, e.g. one
// vertex's edge list within a CSR edge array). The offset and length
// are clamped to the allocation, and a zero-byte access charges the
// page the offset resolves to.
func (a *Arena) TouchRangeAt(r Ref, offsetBytes, bytes int64) {
	if !r.Valid() {
		return
	}
	size := int64(r.Size)
	if offsetBytes < 0 {
		offsetBytes = 0
	} else if offsetBytes > size-1 {
		offsetBytes = size - 1
	}
	if bytes < 0 {
		bytes = 0
	}
	if offsetBytes+bytes > size {
		bytes = size - offsetBytes
	}
	pb := int64(a.pageBytes)
	start := int64(r.Page)*pb + int64(r.Off) + offsetBytes
	last := start // zero-byte access: the page holding the address
	if bytes > 0 {
		last = start + bytes - 1
	}
	for p := start / pb; p <= last/pb; p++ {
		if int(p) < len(a.counts) {
			atomic.AddInt64(&a.counts[p], 1)
		}
	}
}

// Profile returns a copy of the per-page access histogram.
func (a *Arena) Profile() []float64 {
	out := make([]float64, len(a.counts))
	for i := range a.counts {
		out[i] = float64(atomic.LoadInt64(&a.counts[i]))
	}
	return out
}

// TotalTouches returns the total recorded accesses.
func (a *Arena) TotalTouches() int64 {
	var sum int64
	for i := range a.counts {
		sum += atomic.LoadInt64(&a.counts[i])
	}
	return sum
}

// ResetCounts zeroes the histogram (e.g. after a warm-up phase, so the
// profile reflects steady-state access patterns only).
func (a *Arena) ResetCounts() {
	for i := range a.counts {
		atomic.StoreInt64(&a.counts[i], 0)
	}
}
