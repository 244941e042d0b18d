package stats

import (
	"math"
	"slices"
	"strconv"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestRNGSplitIndependent(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split children correlated: %d/100 identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(4)
	var w Welford
	for i := 0; i < 200000; i++ {
		w.Observe(r.Float64())
	}
	if math.Abs(w.Mean()-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", w.Mean())
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	if err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(6)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.05 {
			t.Fatalf("bucket %d count %d, want ~%.0f", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(8)
	var w Welford
	for i := 0; i < 200000; i++ {
		w.Observe(r.NormFloat64())
	}
	if math.Abs(w.Mean()) > 0.01 {
		t.Fatalf("normal mean = %v, want ~0", w.Mean())
	}
	if math.Abs(w.Variance()-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", w.Variance())
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(nil, 100, 100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

// refPerm is the full inside-out Fisher–Yates permutation Perm drew
// before it kept only a prefix: the reference its prefix must equal,
// draw for draw.
func refPerm(r *RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Perm(dst, n, k) must return the first min(k, n) entries of the full
// permutation and leave the stream where the full one does, so a
// workload asking for a shorter prefix draws everything after it
// unchanged. dst's storage is reused when large enough.
func TestPermPrefixMatchesPerm(t *testing.T) {
	var dst []int32
	for seed := uint64(1); seed <= 20; seed++ {
		for _, n := range []int{0, 1, 2, 7, 64, 1000, 4097} {
			for _, k := range []int{0, 1, n / 3, n - 1, n, n + 1} {
				if k < 0 {
					continue
				}
				ra, rb := NewRNG(seed), NewRNG(seed)
				ref := refPerm(ra, n)[:min(k, n)]
				dst = rb.Perm(dst, n, k)
				if len(dst) != len(ref) {
					t.Fatalf("seed %d: Perm(n=%d, k=%d) has %d entries, want %d", seed, n, k, len(dst), len(ref))
				}
				for i, v := range ref {
					if int(dst[i]) != v {
						t.Fatalf("seed %d: Perm(n=%d, k=%d)[%d] = %d, want %d", seed, n, k, i, dst[i], v)
					}
				}
				if a, b := ra.Uint64(), rb.Uint64(); a != b {
					t.Fatalf("seed %d: Uint64 after Perm(n=%d, k=%d) = %d, want %d", seed, n, k, b, a)
				}
			}
		}
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := NewRNG(10)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	for _, v := range s {
		sum += v
	}
	if sum != 36 {
		t.Fatalf("shuffle lost elements: %v", s)
	}
}

// Uint64n, Intn and Perm must give the draws recorded before Uint64n's
// 128-bit product moved to math/bits.Mul64: every golden rests on these
// streams. For each n, seed n's first 64 Uint64n draws fold into an
// FNV-1a digest, and the Uint64 after them pins how many draws the
// rejection loop consumed; 2^63+1 rejects almost half of them. Intn on
// a twin stream must match wherever n fits an int.
func TestUint64nPinnedDraws(t *testing.T) {
	cases := []struct {
		n      uint64
		first  [4]uint64
		digest uint64
		next   uint64
	}{
		{1, [4]uint64{0, 0, 0, 0}, 0xb9b23f3a46fd0825, 10679904434473632331},
		{3, [4]uint64{2, 1, 0, 1}, 0x963f2b4a64273702, 7534703559299810955},
		{1000, [4]uint64{776, 61, 661, 431}, 0x3c229071d7bf7aec, 8520525487167286024},
		{1<<32 + 1, [4]uint64{585521296, 2310034366, 1586308480, 4231458808}, 0xa6ea9f72679c0125, 11556677424176873614},
		{1 << 62, [4]uint64{2708552487245639656, 655496959281139721, 1645761800873143598, 1554529826618302044}, 0x5c6483f38f9b0568, 9650806189280857495},
		{1<<63 + 1, [4]uint64{8954546957165884185, 8070603860420250876, 4581272507636913906, 4581426233393224496}, 0x44faf1506365f810, 5824254534029593302},
	}
	for _, c := range cases {
		r, twin := NewRNG(c.n), NewRNG(c.n)
		h := uint64(0xcbf29ce484222325)
		for i := 0; i < 64; i++ {
			v := r.Uint64n(c.n)
			if i < len(c.first) && v != c.first[i] {
				t.Errorf("n=%d: draw %d = %d, want %d", c.n, i, v, c.first[i])
			}
			if c.n <= math.MaxInt {
				if w := twin.Intn(int(c.n)); uint64(w) != v {
					t.Errorf("n=%d: Intn draw %d = %d, Uint64n gave %d", c.n, i, w, v)
				}
			}
			h = (h ^ v) * 0x100000001b3
		}
		if h != c.digest {
			t.Errorf("n=%d: digest of 64 draws = %#x, want %#x", c.n, h, c.digest)
		}
		if next := r.Uint64(); next != c.next {
			t.Errorf("n=%d: Uint64 after 64 draws = %d, want %d", c.n, next, c.next)
		}
	}
	want := []int32{3, 7, 4, 2, 1, 6, 9, 8, 5, 0}
	if got := NewRNG(10).Perm(nil, 10, 10); !slices.Equal(got, want) {
		t.Errorf("Perm(10) = %v, want %v", got, want)
	}
}

func TestSplitStringDeterministic(t *testing.T) {
	a := NewRNG(7).SplitString("fig5")
	b := NewRNG(7).SplitString("fig5")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same label diverged at draw %d", i)
		}
	}
}

func TestSplitStringLabelsIndependent(t *testing.T) {
	parent := NewRNG(7)
	streams := []*RNG{
		parent.SplitString("fig5"),
		parent.SplitString("fig6a"),
		parent.SplitString(""),
	}
	seen := map[uint64]bool{}
	for _, s := range streams {
		for i := 0; i < 50; i++ {
			seen[s.Uint64()] = true
		}
	}
	if len(seen) < 149 {
		t.Fatalf("labeled streams collide: %d/150 distinct draws", len(seen))
	}
}

// refXoshiro is the xoshiro256** step written statement by statement,
// as in the reference implementation; Uint64 must give its stream.
type refXoshiro [4]uint64

func refRotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

func (s *refXoshiro) next() uint64 {
	result := refRotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = refRotl(s[3], 45)
	return result
}

// Uint64 and Float64 must give the reference step's stream, bit for
// bit, from fresh seeds and from Split, SplitString and Fork children:
// every golden rests on it.
func TestUint64MatchesReference(t *testing.T) {
	type stream struct {
		name string
		r    *RNG
	}
	var streams []stream
	for _, seed := range []uint64{0, 1, 42, 1<<63 + 1, math.MaxUint64} {
		streams = append(streams, stream{"seed " + strconv.FormatUint(seed, 10), NewRNG(seed)})
	}
	parent := NewRNG(7)
	streams = append(streams,
		stream{"Split", parent.Split(3)},
		stream{"SplitString", parent.SplitString("fig5")},
		stream{"Fork", parent.Fork("tenant-0")},
		stream{"parent after Split", parent})
	for _, st := range streams {
		name, r := st.name, st.r
		ref := refXoshiro(r.s)
		for i := 0; i < 100_000; i++ {
			want := ref.next()
			if i%2 == 0 {
				if got := r.Uint64(); got != want {
					t.Fatalf("%s: draw %d: Uint64 = %#x, reference %#x", name, i, got, want)
				}
			} else if got, wantF := r.Float64(), float64(want>>11)/(1<<53); got != wantF {
				t.Fatalf("%s: draw %d: Float64 = %v, reference %v", name, i, got, wantF)
			}
		}
		if r.s != [4]uint64(ref) {
			t.Fatalf("%s: state %x after 10^5 draws, reference %x", name, r.s, ref)
		}
	}
}
