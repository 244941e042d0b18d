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
	// ScanIntervalSec is the time one full pass over the address space
	// takes; the scanner marks pages continuously (round-robin) at a
	// rate of pages/ScanIntervalSec, as the kernel's incremental
	// page-table scanner does.
	ScanIntervalSec float64
	// ScanBatch additionally caps how many pages any single Step may
	// mark; 0 means uncapped.
	ScanBatch int

	as  *pages.AddressSpace
	rng *stats.RNG

	marked   *OrderedSet
	markedAt map[pages.PageID]float64 // page -> mark timestamp (sec)
	cursor   int                      // scan position over page IDs

	scanCarry float64
}

// Fault is one hint fault observed during a quantum.
type Fault struct {
	Page pages.PageID
	// TimeToFaultSec is the delay between the page's marking and this
	// fault.
	TimeToFaultSec float64
}

// NewHintFaultScanner returns a scanner over as.
func NewHintFaultScanner(as *pages.AddressSpace, rng *stats.RNG, scanIntervalSec float64, scanBatch int) *HintFaultScanner {
	if scanIntervalSec <= 0 {
		panic("access: scan interval must be positive")
	}
	return &HintFaultScanner{
		ScanIntervalSec: scanIntervalSec,
		ScanBatch:       scanBatch,
		as:              as,
		rng:             rng,
		marked:          NewOrderedSet(),
		markedAt:        make(map[pages.PageID]float64),
	}
}

// Marked returns how many pages currently carry the protection bit.
func (h *HintFaultScanner) Marked() int { return h.marked.Len() }

// Step advances the scanner by one quantum ending at nowSec, with the
// workload issuing totalRatePerSec memory requests. It returns the hint
// faults that fired during the quantum.
func (h *HintFaultScanner) Step(nowSec, quantumSec, totalRatePerSec float64) []Fault {
	// Incremental page-table scan: mark this quantum's share of pages.
	h.scan(nowSec, quantumSec)
	if h.marked.Len() == 0 || totalRatePerSec <= 0 {
		return nil
	}
	var faults []Fault
	h.marked.ForEach(func(id pages.PageID) Action {
		markedAt := h.markedAt[id]
		if markedAt >= nowSec {
			// Marked during this step; eligible to fault from the next
			// quantum on, so time-to-fault measures from the marking.
			return Keep
		}
		// Rate of accesses to this page.
		lambda := h.as.Weight(id) * totalRatePerSec
		if lambda <= 0 {
			return Keep
		}
		pFault := 1 - math.Exp(-lambda*quantumSec)
		if h.rng.Float64() >= pFault {
			return Keep
		}
		// The access occurred within this quantum. Draw its offset from
		// the exponential inter-access distribution conditioned on
		// landing inside the quantum, so that time-to-fault carries the
		// 1/(p*r) signal TPP classifies on even when 1/lambda is far
		// below the quantum length.
		u := h.rng.Float64()
		offset := -math.Log(1-u*pFault) / lambda
		if offset > quantumSec {
			offset = quantumSec
		}
		ttf := (nowSec - quantumSec + offset) - markedAt
		if ttf < 0 {
			// The page was marked mid-quantum in an earlier step;
			// attribute at least the drawn inter-access gap.
			ttf = offset
		}
		faults = append(faults, Fault{Page: id, TimeToFaultSec: ttf})
		delete(h.markedAt, id)
		return Drop
	})
	return faults
}

// scan marks this quantum's share of pages, resuming from the previous
// cursor position like the kernel's incremental scanner.
func (h *HintFaultScanner) scan(nowSec, quantumSec float64) {
	n := h.as.NumPages()
	h.scanCarry += float64(n) * quantumSec / h.ScanIntervalSec
	budget := int(h.scanCarry)
	h.scanCarry -= float64(budget)
	if h.ScanBatch > 0 && budget > h.ScanBatch {
		budget = h.ScanBatch
	}
	examined := 0
	for examined < n && budget > 0 {
		id := pages.PageID((h.cursor + examined) % n)
		examined++
		if h.marked.Contains(id) {
			continue
		}
		h.marked.Add(id)
		h.markedAt[id] = nowSec
		budget--
	}
	h.cursor = (h.cursor + examined) % n
}
