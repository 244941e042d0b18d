package core

import (
	"math"
	"testing"
	"testing/quick"

	"colloid/internal/pages"
)

// cand is one candidate page for a test scan.
type cand struct {
	ID   pages.PageID
	Prob float64
}

// pick walks cands in order as a system does, offering each to p until
// p is done, and returns the IDs it picked.
func pick(p Picker, cands []cand) []pages.PageID {
	var picked []pages.PageID
	for _, c := range cands {
		if p.Offer(c.Prob) {
			picked = append(picked, c.ID)
		}
		if p.Done() {
			break
		}
	}
	return picked
}

// sumProb totals the probabilities of the picked IDs.
func sumProb(cands []cand, picked []pages.PageID) float64 {
	prob := map[pages.PageID]float64{}
	for _, c := range cands {
		prob[c.ID] = c.Prob
	}
	var sum float64
	for _, id := range picked {
		sum += prob[id]
	}
	return sum
}

func TestPickPagesRespectsBothBounds(t *testing.T) {
	cands := []cand{{1, 0.05}, {2, 0.04}, {3, 0.03}, {4, 0.001}}
	const page = 2 << 20
	picked := pick(NewPicker(0.08, 3*page, page, 0), cands)
	if prob := sumProb(cands, picked); prob > 0.08 {
		t.Fatalf("probability bound violated: %v", prob)
	}
	if bytes := int64(len(picked)) * page; bytes > 3*page {
		t.Fatalf("byte bound violated: %v", bytes)
	}
	if len(picked) == 0 {
		t.Fatal("nothing picked with ample budget")
	}
}

func TestPickPagesSkipsOversized(t *testing.T) {
	cands := []cand{
		{1, 0.5}, // too hot for deltaP
		{2, 0.01},
	}
	picked := pick(NewPicker(0.05, 1<<30, 1<<20, 0), cands)
	if len(picked) != 1 || picked[0] != 2 {
		t.Fatalf("picked = %v, want only page 2", picked)
	}
}

func TestPickPagesZeroBudgets(t *testing.T) {
	cands := []cand{{1, 0.01}}
	if got := pick(NewPicker(0, 100, 1, 0), cands); got != nil {
		t.Fatal("picked with zero deltaP")
	}
	if got := pick(NewPicker(0.1, 0, 1, 0), cands); got != nil {
		t.Fatal("picked with zero byte budget")
	}
}

func TestPickPagesMaxScan(t *testing.T) {
	var cands []cand
	for i := 0; i < 100; i++ {
		cands = append(cands, cand{pages.PageID(i), 1})
	}
	cands = append(cands, cand{999, 0.001})
	// Every scanned candidate overshoots; with maxScan 10 the feasible
	// one at position 100 is never reached.
	if got := pick(NewPicker(0.01, 1000, 1, 10), cands); got != nil {
		t.Fatalf("maxScan not honored: %v", got)
	}
}

// Property: picked sets always respect both budgets, regardless of
// candidate composition.
func TestPickPagesProperty(t *testing.T) {
	f := func(probs []uint16, deltaSeed uint16, limitSeed uint32, pageSeed uint8) bool {
		var cands []cand
		for i, p := range probs {
			cands = append(cands, cand{pages.PageID(i), float64(p) / 65535})
		}
		deltaP := float64(deltaSeed) / 65535
		limit := int64(limitSeed % (1 << 24))
		page := int64(pageSeed%64+1) << 12
		picked := pick(NewPicker(deltaP, limit, page, 0), cands)
		return sumProb(cands, picked) <= deltaP+1e-12 && int64(len(picked))*page <= limit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refCandidate and refPickPages are the collect-then-pick page finder
// that Picker replaces: the system collected every candidate with its
// size first, then this loop consumed them in order.
type refCandidate struct {
	ID          pages.PageID
	Probability float64
	Bytes       int64
}

func refPickPages(candidates []refCandidate, deltaP float64, limitBytes int64, maxScan int) []pages.PageID {
	if deltaP <= 0 || limitBytes <= 0 {
		return nil
	}
	var picked []pages.PageID
	probLeft := deltaP
	bytesLeft := limitBytes
	scanned := 0
	for _, c := range candidates {
		if maxScan > 0 && scanned >= maxScan {
			break
		}
		scanned++
		if probLeft <= deltaP*1e-3 || bytesLeft <= 0 {
			break
		}
		if c.Probability > probLeft || c.Bytes > bytesLeft {
			continue
		}
		picked = append(picked, c.ID)
		probLeft -= c.Probability
		bytesLeft -= c.Bytes
	}
	return picked
}

// Property: on a space of equal-size pages, the picker takes exactly
// the IDs, in the same order, that collecting every candidate first did,
// NaN probabilities and scan caps included.
func TestPickPagesMatchesReference(t *testing.T) {
	f := func(probs []uint16, deltaSeed uint16, limitSeed uint16, pageSeed, scanSeed uint8) bool {
		page := int64(pageSeed%8+1) << 12
		var cands []cand
		var ref []refCandidate
		for i, p := range probs {
			prob := float64(p) / 65535 / 8
			if p%97 == 0 {
				prob = math.NaN()
			}
			cands = append(cands, cand{pages.PageID(i), prob})
			ref = append(ref, refCandidate{pages.PageID(i), prob, page})
		}
		deltaP := float64(deltaSeed) / 65535
		limit := int64(limitSeed) << 8
		maxScan := int(scanSeed % 16)
		got := pick(NewPicker(deltaP, limit, page, maxScan), cands)
		want := refPickPages(ref, deltaP, limit, maxScan)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// The gain of moving as the walk picks rests on this early exit: once
// the byte budget left cannot hold a page, the picker is done and the
// walk examines no later candidate.
func TestPickPagesStopsWhenNoPageFits(t *testing.T) {
	const page = 2 << 20
	p := NewPicker(0.5, 3*page, page, 0)
	offers, picked := 0, 0
	for i := 0; i < 100 && !p.Done(); i++ {
		offers++
		if p.Offer(1e-4) {
			picked++
		}
	}
	if picked != 3 || offers != 3 {
		t.Fatalf("picked %d after %d offers, want 3 picks after 3 offers", picked, offers)
	}
	if p.Offer(1e-4) {
		t.Fatal("offer after the budget ran out was accepted")
	}
	var zero Picker
	if !zero.Done() || zero.Offer(0) {
		t.Fatal("the zero Picker is not done")
	}
}
