package stats

import "math"

// Zipf draws integers in [0, n) with P(k) proportional to 1/(k+1)^s,
// matching the YCSB notion of a Zipfian request distribution. It uses
// the Gray et al. "quick zipf" rejection-free method, so setup is O(1)
// and each draw is O(1), which matters when generating billions of
// simulated operations.
type Zipf struct {
	n     int64
	s     float64
	zetaN float64
	zeta2 float64
	alpha float64
	eta   float64
}

// NewZipf returns a Zipf distribution over [0, n) with exponent s > 0,
// s != 1 handled exactly; s close to 1 (YCSB default 0.99) is typical.
func NewZipf(n int64, s float64) *Zipf {
	if n <= 0 {
		panic("stats: Zipf n must be positive")
	}
	if s <= 0 {
		panic("stats: Zipf exponent must be positive")
	}
	z := &Zipf{n: n, s: s}
	z.zetaN = zetaApprox(n, s)
	z.zeta2 = zetaApprox(2, s)
	z.alpha = 1 / (1 - s)
	z.eta = (1 - math.Pow(2/float64(n), 1-s)) / (1 - z.zeta2/z.zetaN)
	return z
}

// zetaApprox computes the generalized harmonic number H(n, s). For large
// n it switches to an integral approximation with an Euler–Maclaurin
// correction, accurate to well under 0.1% for the exponents we use,
// while keeping construction O(1) for billion-key keyspaces.
func zetaApprox(n int64, s float64) float64 {
	const exactLimit = 1 << 20
	if n <= exactLimit {
		sum := 0.0
		for i := int64(1); i <= n; i++ {
			sum += math.Pow(float64(i), -s)
		}
		return sum
	}
	sum := zetaApprox(exactLimit, s)
	a, b := float64(exactLimit), float64(n)
	if s == 1 {
		sum += math.Log(b / a)
	} else {
		sum += (math.Pow(b, 1-s) - math.Pow(a, 1-s)) / (1 - s)
	}
	// Euler–Maclaurin endpoint correction.
	sum += 0.5 * (math.Pow(b, -s) - math.Pow(a, -s))
	return sum
}

// Draw returns the next sample in [0, n); rank 0 is the most popular.
func (z *Zipf) Draw(r *RNG) int64 {
	u := r.Float64()
	uz := u * z.zetaN
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.s) {
		return 1
	}
	k := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k < 0 {
		k = 0
	}
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// RankProb returns the probability mass of rank k (0-indexed).
func (z *Zipf) RankProb(k int64) float64 {
	if k < 0 || k >= z.n {
		return 0
	}
	return math.Pow(float64(k+1), -z.s) / z.zetaN
}

// HeadMass returns the total probability mass of the k most popular
// ranks. Useful for sizing hot sets from a Zipf skew.
func (z *Zipf) HeadMass(k int64) float64 {
	if k <= 0 {
		return 0
	}
	if k >= z.n {
		return 1
	}
	return zetaApprox(k, z.s) / z.zetaN
}
