// Package stats provides the small statistical toolkit shared by the
// simulator and the tiering systems: a deterministic splittable RNG,
// exponentially weighted moving averages, streaming summaries and a
// bounded Zipf generator.
//
// Everything here is deterministic given a seed so that experiments are
// reproducible run-to-run; nothing reads the wall clock.
package stats

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via splitmix64). It is intentionally not
// math/rand so that streams can be split hierarchically: each subsystem
// derives an independent stream from its parent via Split, keeping
// experiment results stable when unrelated subsystems add or remove
// random draws.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent child stream labeled by label.
// Children with different labels (or from different parents) produce
// uncorrelated sequences.
func (r *RNG) Split(label uint64) *RNG {
	return NewRNG(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}

// SplitString derives an independent child stream labeled by a string
// (FNV-1a folded into Split). Used to give named subsystems — and
// experiment arms — stable streams that do not depend on registration
// or scheduling order.
func (r *RNG) SplitString(label string) *RNG {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 0x100000001b3
	}
	return r.Split(h)
}

// Fork derives an independent child stream labeled by a string without
// advancing the parent: unlike Split/SplitString, which consume one
// draw from the parent (making the derived stream depend on how many
// children came before it), Fork works on a copy of the parent's
// current state. Two Forks of the same parent state with different
// labels are uncorrelated, and the set of streams produced is
// independent of the order the Fork calls are made in — this is what
// gives per-tenant streams that depend only on the tenant's name,
// never on registration order.
func (r *RNG) Fork(label string) *RNG {
	cp := *r
	return cp.SplitString(label)
}

// Uint64 returns the next 64 uniformly distributed bits. It is the
// xoshiro256** step over local words, with the two xors that feed the
// other words folded into the loads and the new state stored at once;
// kept this small it inlines, so a draw loop pays no call and keeps the
// loop's own values in registers.
func (r *RNG) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[0]^r.s[2], r.s[1]^r.s[3]
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int63n called with n <= 0")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's method.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n called with n == 0")
	}
	// Lemire's multiply-shift with rejection to remove modulo bias.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// NormFloat64 returns a standard normal variate (Box-Muller; one value
// per call, discarding the pair partner for simplicity).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Perm returns the first min(k, n) entries of a pseudo-random
// permutation of [0, n), in dst's storage when its capacity exceeds k.
// It runs an inside-out Fisher–Yates shuffle and makes all n draws, so
// the stream after it does not depend on k, but stores only the kept
// prefix: past it, step i's draw j moves p[j] to slot i, which is not
// kept, and writes i into slot j, which is kept only when j < k. n must
// fit an int32, as every page ID does.
func (r *RNG) Perm(dst []int32, n, k int) []int32 {
	k = min(k, n)
	// p[k] is a sink: a draw past the prefix stores there instead of
	// branching on whether it landed in the prefix.
	if cap(dst) < k+1 {
		dst = make([]int32, k+1)
	}
	p := dst[:k+1]
	for i := 0; i < k; i++ {
		j := r.Uint64n(uint64(i) + 1)
		p[i] = p[j]
		p[j] = int32(i)
	}
	for i := k; i < n; i++ {
		p[min(r.Uint64n(uint64(i)+1), uint64(k))] = int32(i)
	}
	return p[:k]
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
