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

// offerAll returns a scan that offers cands in order until refused.
func offerAll(cands []cand) func(offer func(pages.PageID, float64) bool) {
	return func(offer func(pages.PageID, float64) bool) {
		for _, c := range cands {
			if !offer(c.ID, c.Prob) {
				return
			}
		}
	}
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
	picked := PickPages(nil, 0.08, 3*page, page, 0, offerAll(cands))
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
	picked := PickPages(nil, 0.05, 1<<30, 1<<20, 0, offerAll(cands))
	if len(picked) != 1 || picked[0] != 2 {
		t.Fatalf("picked = %v, want only page 2", picked)
	}
}

func TestPickPagesZeroBudgets(t *testing.T) {
	cands := []cand{{1, 0.01}}
	if got := PickPages(nil, 0, 100, 1, 0, offerAll(cands)); got != nil {
		t.Fatal("picked with zero deltaP")
	}
	if got := PickPages(nil, 0.1, 0, 1, 0, offerAll(cands)); got != nil {
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
	if got := PickPages(nil, 0.01, 1000, 1, 10, offerAll(cands)); got != nil {
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
		picked := PickPages(nil, deltaP, limit, page, 0, offerAll(cands))
		return sumProb(cands, picked) <= deltaP+1e-12 && int64(len(picked))*page <= limit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refCandidate and refPickPages are the collect-then-pick page finder
// that PickPages streams: the system collected every candidate with its
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

// Property: on a space of equal-size pages, streaming picks exactly the
// IDs, in the same order, that collecting every candidate first did,
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
		got := PickPages(nil, deltaP, limit, page, maxScan, offerAll(cands))
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

// The gain of streaming rests on this early exit: once the byte budget
// left cannot hold a page, the scan is told to stop and no later
// candidate is examined.
func TestPickPagesStopsWhenNoPageFits(t *testing.T) {
	const page = 2 << 20
	offers := 0
	fourth := true
	got := PickPages(nil, 0.5, 3*page, page, 0, func(offer func(pages.PageID, float64) bool) {
		for i := 0; i < 100; i++ {
			offers++
			if !offer(pages.PageID(i), 1e-4) {
				break
			}
		}
		fourth = offer(100, 1e-4)
	})
	if len(got) != 3 || offers != 3 {
		t.Fatalf("picked %v after %d offers, want 3 picks after 3 offers", got, offers)
	}
	if fourth {
		t.Fatal("offer after the budget ran out was accepted")
	}
}
