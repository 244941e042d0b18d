package access

import (
	"math"
	"testing"

	"colloid/internal/memsys"
	"colloid/internal/pages"
	"colloid/internal/stats"
)

func testSpace(t *testing.T) *pages.AddressSpace {
	t.Helper()
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	as, err := pages.NewAddressSpace(topo, 4*memsys.GiB, pages.HugePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

func TestSamplerMatchesWeights(t *testing.T) {
	as := testSpace(t)
	// Two hot pages at 0.4 each, rest share 0.2.
	as.SetWeight(0, 0.4)
	as.SetWeight(1, 0.4)
	rest := 0.2 / float64(as.NumPages()-2)
	for id := pages.PageID(2); int(id) < as.NumPages(); id++ {
		as.SetWeight(id, rest)
	}
	s := NewSampler(as, stats.NewRNG(1))
	counts := make(map[pages.PageID]int)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[s.Sample()]++
	}
	for id := range pages.PageID(2) {
		got := float64(counts[id]) / draws
		if math.Abs(got-0.4) > 0.01 {
			t.Errorf("page %d sampled at %v, want ~0.4", id, got)
		}
	}
}

func TestSamplerEmptyWeights(t *testing.T) {
	as := testSpace(t)
	s := NewSampler(as, stats.NewRNG(2))
	if got := s.Sample(); got != pages.NoPage {
		t.Fatalf("Sample with zero weights = %d, want NoPage", got)
	}
}

func TestSamplerTracksWeightChanges(t *testing.T) {
	as := testSpace(t)
	as.SetWeight(0, 1)
	s := NewSampler(as, stats.NewRNG(3))
	if got := s.Sample(); got != 0 {
		t.Fatalf("sample = %d, want 0", got)
	}
	// Shift all the weight to another page; sampler must follow.
	as.SetWeight(0, 0)
	as.SetWeight(7, 1)
	for i := 0; i < 100; i++ {
		if got := s.Sample(); got != 7 {
			t.Fatalf("sample after shift = %d, want 7", got)
		}
	}
}

func TestSampleN(t *testing.T) {
	as := testSpace(t)
	as.SetWeight(0, 1)
	s := NewSampler(as, stats.NewRNG(4))
	got := s.SampleN(nil, 50)
	if len(got) != 50 {
		t.Fatalf("SampleN returned %d samples", len(got))
	}
}

func TestFreqTrackerCooling(t *testing.T) {
	f := NewFreqTracker(8)
	for i := 0; i < 7; i++ {
		f.Touch(1)
	}
	if f.Count(1) != 7 || f.Cools() != 0 {
		t.Fatalf("pre-cool state: count=%d cools=%d", f.Count(1), f.Cools())
	}
	f.Touch(1) // hits threshold 8 -> halve
	if f.Cools() != 1 {
		t.Fatalf("cools = %d, want 1", f.Cools())
	}
	if f.Count(1) != 4 {
		t.Fatalf("post-cool count = %d, want 4", f.Count(1))
	}
}

func TestFreqTrackerProbability(t *testing.T) {
	f := NewFreqTracker(1000)
	for i := 0; i < 30; i++ {
		f.Touch(1)
	}
	for i := 0; i < 10; i++ {
		f.Touch(2)
	}
	if got := f.Probability(1); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("P(1) = %v, want 0.75", got)
	}
	if got := f.Probability(3); got != 0 {
		t.Fatalf("P(untouched) = %v", got)
	}
}

func TestFreqTrackerCoolDropsZeros(t *testing.T) {
	f := NewFreqTracker(1000)
	f.Touch(1)
	f.Touch(2)
	f.Touch(2)
	f.Cool()
	if f.Tracked() != 1 {
		t.Fatalf("tracked after cool = %d, want 1 (count-1 page dropped)", f.Tracked())
	}
	if f.Total() != 1 {
		t.Fatalf("total after cool = %d", f.Total())
	}

	// Pages at counts 0, 1, 2, 3 and 15 halve to 0, 0, 1, 1 and 7: the
	// untouched page stays untracked, the count-1 page drops out, and
	// the total is the sum of the halves.
	g := NewFreqTracker(1000)
	want := []uint32{0, 0, 1, 1, 7}
	for id, n := range []int{0, 1, 2, 3, 15} {
		for i := 0; i < n; i++ {
			g.Touch(pages.PageID(id))
		}
	}
	if g.Tracked() != 4 || g.Total() != 21 {
		t.Fatalf("before cool: tracked %d total %d, want 4 and 21", g.Tracked(), g.Total())
	}
	g.Cool()
	for id, w := range want {
		if c := g.Count(pages.PageID(id)); c != w {
			t.Fatalf("count of page %d after cool = %d, want %d", id, c, w)
		}
	}
	if g.Tracked() != 3 || g.Total() != 9 {
		t.Fatalf("after cool: tracked %d total %d, want 3 and 9", g.Tracked(), g.Total())
	}
}

func TestHintFaultHotPageFaultsQuickly(t *testing.T) {
	as := testSpace(t)
	as.SetWeight(0, 0.9)
	rest := 0.1 / float64(as.NumPages()-1)
	for id := pages.PageID(1); int(id) < as.NumPages(); id++ {
		as.SetWeight(id, rest)
	}
	h := NewHintFaultScanner(as, stats.NewRNG(5), 1.0)
	const rate = 1e8 // requests/sec
	var hotFaultAt float64 = -1
	now := 0.0
	for q := 0; q < 1000 && hotFaultAt < 0; q++ {
		now += 0.01
		for _, f := range h.Step(nil, now, 0.01, rate) {
			if f.Page == 0 {
				hotFaultAt = now
			}
		}
	}
	if hotFaultAt < 0 {
		t.Fatal("hot page never hint-faulted")
	}
	// Expected time-to-fault = 1/(0.9 * 1e8) ~ 11ns; the hot page
	// should fault in the very first quantum after marking.
	if hotFaultAt > 0.05 {
		t.Fatalf("hot page faulted at %vs, expected within first quanta", hotFaultAt)
	}
}

func TestHintFaultColdPageFaultsSlowly(t *testing.T) {
	as := testSpace(t)
	// One hot page, one barely-accessed page.
	as.SetWeight(0, 1-1e-7)
	as.SetWeight(1, 1e-7)
	h := NewHintFaultScanner(as, stats.NewRNG(6), 1.0)
	const rate = 1e6
	now := 0.0
	for q := 0; q < 100; q++ {
		now += 0.01
		for _, f := range h.Step(nil, now, 0.01, rate) {
			if f.Page == 1 {
				t.Fatalf("cold page (lambda=0.1/s) faulted within %vs", now)
			}
		}
	}
}

func TestHintFaultRemarking(t *testing.T) {
	as := testSpace(t)
	as.SetWeight(0, 1)
	h := NewHintFaultScanner(as, stats.NewRNG(7), 0.5)
	now := 0.0
	faults := 0
	for q := 0; q < 300; q++ {
		now += 0.01
		faults += len(h.Step(nil, now, 0.01, 1e8))
	}
	// The hot page faults after every re-mark: 3 s / 0.5 s interval.
	if faults < 4 {
		t.Fatalf("hot page faulted %d times in 3s with 0.5s rescans, want >= 4", faults)
	}
}

func TestHintFaultContinuousScanRate(t *testing.T) {
	as := testSpace(t)
	n := as.NumPages()
	h := NewHintFaultScanner(as, stats.NewRNG(12), 1.0)
	// With no traffic, marks accumulate at pages/interval.
	for i := 0; i < 50; i++ {
		h.Step(nil, float64(i+1)*0.01, 0.01, 0)
	}
	want := n / 2 // half the interval elapsed
	if got := h.Marked(); got < want-2 || got > want+2 {
		t.Fatalf("marked after half interval = %d, want ~%d", got, want)
	}
}

// Step appends to the caller's buffer and leaves what it holds: a
// scanner handed a reused buffer that starts with a sentinel draws the
// same faults, in the same order, as a twin handed nil each quantum.
func TestHintFaultStepAppendsToBuffer(t *testing.T) {
	as := testSpace(t)
	for id := pages.PageID(0); int(id) < as.NumPages(); id++ {
		as.SetWeight(id, 1/float64(as.NumPages()))
	}
	fresh := NewHintFaultScanner(as, stats.NewRNG(3), 0.1)
	reused := NewHintFaultScanner(as, stats.NewRNG(3), 0.1)
	sentinel := Fault{Page: pages.NoPage}
	var buf []Fault
	total := 0
	for q := 1; q <= 100; q++ {
		now := float64(q) * 0.01
		want := fresh.Step(nil, now, 0.01, 1e6)
		buf = reused.Step(append(buf[:0], sentinel), now, 0.01, 1e6)
		if len(buf) != len(want)+1 || buf[0] != sentinel {
			t.Fatalf("quantum %d: buffer holds %d faults after the sentinel %v, want %d", q, len(buf)-1, buf[0], len(want))
		}
		for i, f := range want {
			if buf[i+1] != f {
				t.Fatalf("quantum %d: fault %d is %+v, want %+v", q, i, buf[i+1], f)
			}
		}
		total += len(want)
	}
	if total == 0 {
		t.Fatal("no hint faults drawn")
	}
}

func TestTimeToFaultEstimatesProbability(t *testing.T) {
	// Statistical check of the TPP estimator p = 1/(ttf * rate):
	// average time-to-fault for a page with probability p under rate r
	// should be ~1/(p*r).
	as := testSpace(t)
	const pHot = 0.02
	as.SetWeight(0, pHot)
	rest := (1 - pHot) / float64(as.NumPages()-1)
	for id := pages.PageID(1); int(id) < as.NumPages(); id++ {
		as.SetWeight(id, rest)
	}
	h := NewHintFaultScanner(as, stats.NewRNG(9), 0.05)
	const rate = 1e4
	var w stats.Welford
	now := 0.0
	for q := 0; q < 200000 && w.N() < 300; q++ {
		now += 0.001
		for _, f := range h.Step(nil, now, 0.001, rate) {
			if f.Page == 0 && f.TimeToFaultSec > 0 {
				w.Observe(f.TimeToFaultSec)
			}
		}
	}
	if w.N() < 100 {
		t.Fatalf("too few faults observed: %d", w.N())
	}
	want := 1 / (pHot * rate) // 5 ms
	if got := w.Mean(); math.Abs(got-want)/want > 0.5 {
		t.Fatalf("mean time-to-fault = %v, want ~%v", got, want)
	}
}
