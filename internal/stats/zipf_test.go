package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZipfBounds(t *testing.T) {
	r := NewRNG(1)
	z := NewZipf(1000, 0.99)
	for i := 0; i < 100000; i++ {
		k := z.Draw(r)
		if k < 0 || k >= 1000 {
			t.Fatalf("draw out of range: %d", k)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(2)
	z := NewZipf(10000, 0.99)
	counts := make([]int64, 10000)
	const draws = 500000
	for i := 0; i < draws; i++ {
		counts[z.Draw(r)]++
	}
	// Rank 0 should carry roughly RankProb(0) of the mass.
	want := z.RankProb(0)
	got := float64(counts[0]) / draws
	if math.Abs(got-want)/want > 0.15 {
		t.Fatalf("rank-0 mass = %v, want ~%v", got, want)
	}
	// Monotone-ish: top rank should beat rank 100 decisively.
	if counts[0] <= counts[100] {
		t.Fatalf("no skew: counts[0]=%d counts[100]=%d", counts[0], counts[100])
	}
}

func TestZipfRankProbSumsToOne(t *testing.T) {
	z := NewZipf(5000, 1.2)
	sum := 0.0
	for k := int64(0); k < 5000; k++ {
		sum += z.RankProb(k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestZipfHeadMassMonotone(t *testing.T) {
	z := NewZipf(1<<22, 0.99)
	prev := 0.0
	for _, k := range []int64{0, 1, 10, 100, 1000, 1 << 20, 1 << 22} {
		m := z.HeadMass(k)
		if m < prev-1e-12 {
			t.Fatalf("HeadMass not monotone at k=%d: %v < %v", k, m, prev)
		}
		if m < 0 || m > 1 {
			t.Fatalf("HeadMass out of [0,1]: %v", m)
		}
		prev = m
	}
	if z.HeadMass(1<<22) != 1 {
		t.Fatalf("full head mass = %v, want 1", z.HeadMass(1<<22))
	}
}

func TestZetaApproxMatchesExact(t *testing.T) {
	// Compare the large-n approximation against brute force just above
	// the exact limit.
	for _, s := range []float64{0.7, 0.99, 1.3} {
		n := int64(1<<20 + 50000)
		exact := 0.0
		for i := int64(1); i <= n; i++ {
			exact += math.Pow(float64(i), -s)
		}
		approx := zetaApprox(n, s)
		if math.Abs(approx-exact)/exact > 1e-3 {
			t.Fatalf("s=%v: zetaApprox=%v exact=%v", s, approx, exact)
		}
	}
}

func TestZipfProperties(t *testing.T) {
	r := NewRNG(11)
	f := func(nSeed uint16, sSeed uint8) bool {
		n := int64(nSeed%5000) + 2
		s := 0.3 + float64(sSeed%20)/10.0
		z := NewZipf(n, s)
		k := z.Draw(r)
		return k >= 0 && k < n && z.RankProb(k) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
