// Package pages models the application address space at page
// granularity: every page has a current tier and an access weight (its
// share of the workload's memory requests). The sum of weights of pages
// resident in the default tier is exactly the quantity p that Colloid's
// placement algorithm steers (Section 3.1).
//
// Every page of a space has the same size and lives as long as the
// space: IDs run 0..NumPages()-1. Pages default to 2 MB (the granularity
// HeMem and THP-mode TPP manage); a 4 KB space models base-page
// management. MEMTIS's huge-page split is modelled inside
// internal/memtis, which keeps a split 2 MB region as one placement
// unit.
//
// The per-page fields live in parallel slices (structure-of-arrays)
// indexed by PageID, so the sharded per-quantum pipeline can scan a
// contiguous address range without dragging cold fields through the
// cache. A page's tier takes one byte, so a space spans at most 256
// tiers and a placement read touches an eighth of the bytes a TierID
// would. The Page struct remains the unit of the public API; Get
// assembles one from the slices.
package pages

import (
	"fmt"

	"colloid/internal/memsys"
)

// PageID identifies a page within an AddressSpace. IDs run
// 0..NumPages()-1 and are stable for the life of the space.
type PageID int32

// NoPage is the zero PageID sentinel for "no such page".
const NoPage PageID = -1

// maxTiers is the most tiers a space can span: a page's tier is stored
// in one byte.
const maxTiers = 1 << 8

// BasePageBytes and HugePageBytes are the two page sizes the systems
// manage (4 KB and 2 MB).
const (
	BasePageBytes = 4 << 10
	HugePageBytes = 2 << 20
)

// Page is one unit of placement.
type Page struct {
	// ID is the page's identity within its AddressSpace.
	ID PageID
	// Bytes is the page size (the same for every page of a space).
	Bytes int64
	// Tier is the page's current home.
	Tier memsys.TierID
	// Weight is the page's true access probability mass: the fraction
	// of the workload's memory requests that touch this page. Weights
	// across pages sum to ~1 (workloads maintain this).
	Weight float64
}

// AddressSpace tracks all pages, their placement, and per-tier
// aggregates. Mutators are not safe for concurrent use; the simulator
// steps systems sequentially within a quantum. The read-only View is
// safe to scan from shard workers between mutations.
type AddressSpace struct {
	topo      *memsys.Topology
	pageBytes int64
	// Per-page fields, SoA, indexed by PageID; tier holds a TierID
	// below maxTiers.
	weight []float64
	tier   []uint8

	tierBytes   []int64
	tierWeight  []float64
	totalWeight float64
	version     uint64
}

// Version increments whenever the weight distribution changes
// (SetWeight, SetWeights). Samplers use it to cache derived structures
// across quanta; placement moves do not bump it because they do not
// change what the PMU would sample.
func (as *AddressSpace) Version() uint64 { return as.version }

// check panics with a descriptive message when id does not name a page
// (NoPage or out of range). One unsigned compare covers both ends, and
// the message is built out of line, so check inlines into the
// per-sample accessors.
func (as *AddressSpace) check(id PageID, op string) {
	if uint(id) >= uint(len(as.weight)) {
		as.outOfRange(id, op)
	}
}

// outOfRange panics with check's message. It stays a call so that
// formatting the message does not count against check's inlining
// budget.
//
//go:noinline
func (as *AddressSpace) outOfRange(id PageID, op string) {
	panic(fmt.Sprintf("pages: %s of out-of-range page id %d (valid ids are [0,%d))", op, id, len(as.weight)))
}

// NewAddressSpace allocates an address space over topo with
// totalBytes/pageBytes pages of size pageBytes, all initially weight 0
// and placed first-fit: the default tier fills first, then the
// alternates, mimicking first-touch allocation under Linux.
func NewAddressSpace(topo *memsys.Topology, totalBytes, pageBytes int64) (*AddressSpace, error) {
	if pageBytes <= 0 || totalBytes <= 0 {
		return nil, fmt.Errorf("pages: sizes must be positive")
	}
	if totalBytes%pageBytes != 0 {
		return nil, fmt.Errorf("pages: total %d not a multiple of page size %d", totalBytes, pageBytes)
	}
	n := totalBytes / pageBytes
	if n > 1<<28 {
		return nil, fmt.Errorf("pages: %d pages is unreasonably many; raise the page size", n)
	}
	if topo.NumTiers() > maxTiers {
		return nil, fmt.Errorf("pages: %d tiers exceed the %d a page's one-byte tier can name", topo.NumTiers(), maxTiers)
	}
	if totalBytes > topo.TotalCapacity() {
		return nil, fmt.Errorf("pages: working set %d exceeds total capacity %d", totalBytes, topo.TotalCapacity())
	}
	as := &AddressSpace{
		topo:       topo,
		pageBytes:  pageBytes,
		weight:     make([]float64, n),
		tier:       make([]uint8, n),
		tierBytes:  make([]int64, topo.NumTiers()),
		tierWeight: make([]float64, topo.NumTiers()),
	}
	idx := 0
	for t := 0; t < topo.NumTiers() && idx < int(n); t++ {
		free := topo.Capacity(memsys.TierID(t))
		for idx < int(n) && free >= pageBytes {
			as.tier[idx] = uint8(t)
			as.tierBytes[t] += pageBytes
			free -= pageBytes
			idx++
		}
	}
	if idx < int(n) {
		return nil, fmt.Errorf("pages: could not place all pages (placed %d of %d)", idx, n)
	}
	return as, nil
}

// NumPages returns the number of pages; IDs run 0..NumPages()-1.
func (as *AddressSpace) NumPages() int { return len(as.weight) }

// PageBytes returns the page size, the same for every page of the space.
func (as *AddressSpace) PageBytes() int64 { return as.pageBytes }

// Get returns a copy of the page with the given ID. It panics on
// NoPage or an out-of-range ID.
func (as *AddressSpace) Get(id PageID) Page {
	as.check(id, "Get")
	return Page{
		ID:     id,
		Bytes:  as.pageBytes,
		Tier:   memsys.TierID(as.tier[id]),
		Weight: as.weight[id],
	}
}

// SetWeight updates the page's access probability mass.
func (as *AddressSpace) SetWeight(id PageID, w float64) {
	as.check(id, "SetWeight")
	if w < 0 {
		panic("pages: negative weight")
	}
	delta := w - as.weight[id]
	as.tierWeight[as.tier[id]] += delta
	as.totalWeight += delta
	as.weight[id] = w
	as.version++
}

// SetWeights sets every page's weight to weight(id), in page-ID order,
// and bumps the version once. The per-tier and total sums take the same
// additions, in the same order, that a SetWeight loop over the IDs
// makes, so they hold the same bits. It panics on a negative weight, as
// SetWeight does, leaving the pages before it updated.
func (as *AddressSpace) SetWeights(weight func(id PageID) float64) {
	as.version++
	total := as.totalWeight
	for i, old := range as.weight {
		w := weight(PageID(i))
		if w < 0 {
			as.totalWeight = total
			panic("pages: negative weight")
		}
		delta := w - old
		as.tierWeight[as.tier[i]] += delta
		total += delta
		as.weight[i] = w
	}
	as.totalWeight = total
}

// Weight returns the page's current weight. It panics on NoPage or an
// out-of-range ID.
func (as *AddressSpace) Weight(id PageID) float64 {
	as.check(id, "Weight")
	return as.weight[id]
}

// Tier returns the page's current tier. It panics on NoPage or an
// out-of-range ID.
func (as *AddressSpace) Tier(id PageID) memsys.TierID {
	as.check(id, "Tier")
	return memsys.TierID(as.tier[id])
}

// NumTiers returns the number of tiers the space spans.
func (as *AddressSpace) NumTiers() int { return len(as.tierBytes) }

// TierBytes returns the bytes resident in tier t.
func (as *AddressSpace) TierBytes(t memsys.TierID) int64 { return as.tierBytes[t] }

// FreeBytes returns the unused capacity of tier t.
func (as *AddressSpace) FreeBytes(t memsys.TierID) int64 {
	return as.topo.Capacity(t) - as.tierBytes[t]
}

// SpillTier is where demotions land: the first alternate tier with
// free space, else tier 1.
func (as *AddressSpace) SpillTier() memsys.TierID {
	for t := 1; t < as.NumTiers(); t++ {
		if as.FreeBytes(memsys.TierID(t)) > 0 {
			return memsys.TierID(t)
		}
	}
	return 1
}

// TierShare returns, for each tier, the fraction of workload requests
// served by pages resident there (the p vector). Returns zeros if no
// page has weight.
func (as *AddressSpace) TierShare() []float64 {
	return as.TierShareInto(nil)
}

// TierShareInto is TierShare writing into buf, which is grown if
// needed and returned; per-quantum callers reuse one buffer and stay
// allocation-free.
func (as *AddressSpace) TierShareInto(buf []float64) []float64 {
	if cap(buf) < len(as.tierWeight) {
		buf = make([]float64, len(as.tierWeight))
	}
	buf = buf[:len(as.tierWeight)]
	for i, w := range as.tierWeight {
		if as.totalWeight <= 0 {
			buf[i] = 0
		} else {
			buf[i] = w / as.totalWeight
		}
	}
	return buf
}

// DefaultShare returns the p scalar for two-tier discussions: the share
// of requests served by the default tier.
func (as *AddressSpace) DefaultShare() float64 {
	if as.totalWeight <= 0 {
		return 0
	}
	return as.tierWeight[memsys.DefaultTier] / as.totalWeight
}

// Move relocates a page to tier to, enforcing destination capacity.
// Unlike the accessors it returns an error on a bad ID: movers handle
// errors anyway.
func (as *AddressSpace) Move(id PageID, to memsys.TierID) error {
	if int(id) < 0 || int(id) >= len(as.weight) {
		return fmt.Errorf("pages: move of out-of-range page id %d (valid ids are [0,%d))", id, len(as.weight))
	}
	if int(to) < 0 || int(to) >= len(as.tierBytes) {
		return fmt.Errorf("pages: move to invalid tier %d", to)
	}
	from := memsys.TierID(as.tier[id])
	if from == to {
		return nil
	}
	if as.FreeBytes(to) < as.pageBytes {
		return fmt.Errorf("pages: tier %d full (%d free, need %d)", to, as.FreeBytes(to), as.pageBytes)
	}
	as.tierBytes[from] -= as.pageBytes
	as.tierWeight[from] -= as.weight[id]
	as.tier[id] = uint8(to)
	as.tierBytes[to] += as.pageBytes
	as.tierWeight[to] += as.weight[id]
	return nil
}

// ForEachLive calls fn for every page, in ID order. fn must not mutate
// the address space.
func (as *AddressSpace) ForEachLive(fn func(p Page)) {
	for i, w := range as.weight {
		fn(Page{ID: PageID(i), Bytes: as.pageBytes, Tier: memsys.TierID(as.tier[i]), Weight: w})
	}
}

// View is a read-only dense snapshot of the address space for sharded
// scans: the SoA per-page fields indexed by PageID plus the page size.
// Tier[id] is page id's memsys.TierID in one byte. The slices alias the
// address space's storage — they are valid until the next mutation and
// must not be written through.
type View struct {
	Weight    []float64
	Tier      []uint8
	PageBytes int64
}

// LiveView returns the current View. Concurrent readers (shard workers)
// may scan it freely as long as no mutator runs until they finish.
func (as *AddressSpace) LiveView() View {
	return View{Weight: as.weight, Tier: as.tier, PageBytes: as.pageBytes}
}
