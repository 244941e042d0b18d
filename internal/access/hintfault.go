package access

import (
	"math"

	"colloid/internal/pages"
	"colloid/internal/stats"
)

// HintFaultScanner models TPP's access tracking: the kernel
// periodically scans page tables, marking pages with a protection bit;
// the next access to a marked page takes a hint page fault. The
// time-to-fault — the delay between marking and the fault — is the
// signal: a page with access probability p under a tier request rate r
// faults after an expected 1/(p*r) seconds (Section 4.3).
//
// The simulator cannot fault on real accesses, so each quantum the
// scanner computes, for every marked page, the probability that at
// least one access landed in the quantum (1 - exp(-p*r*dt)) and draws
// the fault accordingly; the fault's time-to-fault is drawn from the
// exponential's conditional distribution. This reproduces both TPP's
// signal and its weakness: cold pages take a long time to fault, so
// hot-set changes are detected slowly.
type HintFaultScanner struct {
	// scanIntervalSec is the time one full pass over the address space
	// takes; the scanner marks pages continuously (round-robin) at a
	// rate of pages/scanIntervalSec, as the kernel's incremental
	// page-table scanner does.
	scanIntervalSec float64

	as  *pages.AddressSpace
	rng *stats.RNG

	// marks holds the marked pages in marking order, perturbed only by
	// the swap-removes of faulted pages, so the fault draws visit them
	// in a deterministic order. isMarked is indexed by page ID.
	marks    []mark
	isMarked []bool
	cursor   int // scan position over page IDs

	scanCarry float64
}

// mark is one marked page and the time (sec) it was marked.
type mark struct {
	page pages.PageID
	at   float64
}

// Fault is one hint fault observed during a quantum.
type Fault struct {
	Page pages.PageID
	// TimeToFaultSec is the delay between the page's marking and this
	// fault.
	TimeToFaultSec float64
}

// NewHintFaultScanner returns a scanner over as that marks every page
// once per scanIntervalSec.
func NewHintFaultScanner(as *pages.AddressSpace, rng *stats.RNG, scanIntervalSec float64) *HintFaultScanner {
	if scanIntervalSec <= 0 {
		panic("access: scan interval must be positive")
	}
	return &HintFaultScanner{
		scanIntervalSec: scanIntervalSec,
		as:              as,
		rng:             rng,
		isMarked:        make([]bool, as.NumPages()),
	}
}

// Marked returns how many pages currently carry the protection bit.
func (h *HintFaultScanner) Marked() int { return len(h.marks) }

// Step advances the scanner by one quantum ending at nowSec, with the
// workload issuing totalRatePerSec memory requests. It appends the hint
// faults that fired during the quantum to dst, in the order it drew
// them, and returns the extended slice, so a caller that passes the
// same buffer each quantum allocates only while it grows.
func (h *HintFaultScanner) Step(dst []Fault, nowSec, quantumSec, totalRatePerSec float64) []Fault {
	// Incremental page-table scan: mark this quantum's share of pages.
	h.scan(nowSec, quantumSec)
	if len(h.marks) == 0 || totalRatePerSec <= 0 {
		return dst
	}
	// A fault swap-removes its mark, so the loop looks at index i again.
	for i := 0; i < len(h.marks); {
		m := h.marks[i]
		ttf, ok := h.draw(m, nowSec, quantumSec, totalRatePerSec)
		if !ok {
			i++
			continue
		}
		dst = append(dst, Fault{Page: m.page, TimeToFaultSec: ttf})
		h.isMarked[m.page] = false
		last := len(h.marks) - 1
		h.marks[i] = h.marks[last]
		h.marks = h.marks[:last]
	}
	return dst
}

// draw decides whether marked page m faults in the quantum ending at
// nowSec and, if it does, returns its time-to-fault.
func (h *HintFaultScanner) draw(m mark, nowSec, quantumSec, totalRatePerSec float64) (float64, bool) {
	if m.at >= nowSec {
		// Marked during this step; eligible to fault from the next
		// quantum on, so time-to-fault measures from the marking.
		return 0, false
	}
	// Rate of accesses to this page.
	lambda := h.as.Weight(m.page) * totalRatePerSec
	if lambda <= 0 {
		return 0, false
	}
	pFault := 1 - math.Exp(-lambda*quantumSec)
	if h.rng.Float64() >= pFault {
		return 0, false
	}
	// The access occurred within this quantum. Draw its offset from the
	// exponential inter-access distribution conditioned on landing
	// inside the quantum, so that time-to-fault carries the 1/(p*r)
	// signal TPP classifies on even when 1/lambda is far below the
	// quantum length.
	u := h.rng.Float64()
	offset := -math.Log(1-u*pFault) / lambda
	if offset > quantumSec {
		offset = quantumSec
	}
	ttf := (nowSec - quantumSec + offset) - m.at
	if ttf < 0 {
		// The page was marked mid-quantum in an earlier step; attribute
		// at least the drawn inter-access gap.
		ttf = offset
	}
	return ttf, true
}

// scan marks this quantum's share of pages, resuming from the previous
// cursor position like the kernel's incremental scanner.
func (h *HintFaultScanner) scan(nowSec, quantumSec float64) {
	n := h.as.NumPages()
	h.scanCarry += float64(n) * quantumSec / h.scanIntervalSec
	budget := int(h.scanCarry)
	h.scanCarry -= float64(budget)
	examined := 0
	for examined < n && budget > 0 {
		id := pages.PageID((h.cursor + examined) % n)
		examined++
		if h.isMarked[id] {
			continue
		}
		h.isMarked[id] = true
		h.marks = append(h.marks, mark{page: id, at: nowSec})
		budget--
	}
	h.cursor = (h.cursor + examined) % n
}
