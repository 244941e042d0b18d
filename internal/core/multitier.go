package core

import (
	"colloid/internal/cha"
	"colloid/internal/memsys"
)

// MultiDecision is one quantum's outcome for a general (>= 2 tier)
// topology: shift DeltaP of access probability from tier From to tier
// To.
type MultiDecision struct {
	// Hold is true when all latencies are within the deadband.
	Hold bool
	// From is the tier to take hot pages out of (highest latency).
	From memsys.TierID
	// To is the tier to add hot pages to (lowest latency).
	To memsys.TierID
	// DeltaP is the desired shift in access probability.
	DeltaP float64
	// LatencyNs and RatePerSec are the smoothed per-tier measurements.
	LatencyNs  []float64
	RatePerSec []float64
	// MigrationLimitBytesPerSec is the dynamic migration limit.
	MigrationLimitBytesPerSec float64
}

// MultiController extends the principle of balancing access latencies
// to arbitrarily many tiers (Section 3.1's generalization): if tier
// latencies are unequal, average latency falls by moving access
// probability from the highest-latency tier to the lowest-latency tier;
// the all-equal state is the equilibrium.
//
// Because the state is no longer a scalar p, the two-watermark binary
// search of Algorithm 2 does not apply directly; instead the shift is
// proportional to the normalized latency imbalance between the extreme
// tiers, damped by Gain, which converges to the same equilibrium and
// reduces to behaviour close to Algorithm 2's halving steps for two
// tiers.
type MultiController struct {
	opts    Options
	gain    float64
	measure measure
}

// NewMultiController returns a controller for numTiers >= 2. gain in
// (0, 1] scales the per-quantum shift (default 0.5).
func NewMultiController(numTiers int, opts Options, gain float64) *MultiController {
	if numTiers < 2 {
		panic("core: multi controller needs at least two tiers")
	}
	if gain <= 0 || gain > 1 {
		gain = 0.5
	}
	o := opts.withDefaults()
	return &MultiController{opts: o, gain: gain, measure: newMeasure(numTiers, o, ewmaAlpha)}
}

// Observe consumes a cumulative CHA snapshot and returns the decision;
// ok is false while priming or without traffic.
func (m *MultiController) Observe(snap cha.Snapshot) (d MultiDecision, ok bool) {
	lat, rate, totalRate, ready := m.measure.observe(snap)
	if !ready || totalRate <= 0 {
		return MultiDecision{}, false
	}
	// Extreme tiers by measured latency.
	fast, slow := 0, 0
	for t := 1; t < len(lat); t++ {
		if lat[t] < lat[fast] {
			fast = t
		}
		if lat[t] > lat[slow] {
			slow = t
		}
	}
	d = MultiDecision{
		From:       memsys.TierID(slow),
		To:         memsys.TierID(fast),
		LatencyNs:  lat,
		RatePerSec: rate,
	}
	if slow == fast || lat[slow]-lat[fast] < m.opts.Delta*lat[slow] {
		d.Hold = true
		return d, true
	}
	imbalance := (lat[slow] - lat[fast]) / (lat[slow] + lat[fast])
	shareSlow := rate[slow] / totalRate
	deltaP := m.gain * imbalance * shareSlow
	if deltaP <= 0 {
		d.Hold = true
		return d, true
	}
	d.DeltaP = deltaP
	d.MigrationLimitBytesPerSec = deltaP * totalRate * memsys.CachelineBytes
	if s := m.opts.StaticLimitBytesPerSec; s > 0 && d.MigrationLimitBytesPerSec > s {
		d.MigrationLimitBytesPerSec = s
	}
	return d, true
}
