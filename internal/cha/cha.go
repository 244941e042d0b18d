// Package cha models the processor's Caching and Home Agent (CHA) as a
// measurement vantage point, following Section 3.1 of the paper.
//
// On real hardware every L3 miss is queued at a CHA slice until the
// owning tier services it, and uncore PMU counters expose, per tier and
// request type, (a) the number of requests inserted and (b) the integral
// of queue occupancy over time. Colloid samples those counters each
// quantum, diffs them, and applies Little's law: the average latency of
// a tier over the quantum is occupancy / rate, with no assumptions about
// arrival processes or scheduling.
//
// Here the simulator feeds the same two cumulative counters from the
// solved equilibrium of each quantum (occupancy integral = rate x
// latency x duration, which is Little's law run forward), optionally
// perturbed by multiplicative measurement noise so that downstream EWMA
// smoothing is exercised the way it is on real PMUs.
package cha

import (
	"fmt"

	"colloid/internal/obs"
	"colloid/internal/stats"
)

// Snapshot is a point-in-time read of the cumulative CHA counters, one
// entry per tier.
type Snapshot struct {
	// TimeNs is the cumulative simulated time at the read.
	TimeNs float64
	// Inserts[t] is the cumulative count of read requests to tier t.
	Inserts []float64
	// OccupancyIntegralNs[t] is the cumulative integral of tier t's
	// queue occupancy over time (request-nanoseconds).
	OccupancyIntegralNs []float64
}

// Counters is the simulated CHA counter bank.
type Counters struct {
	numTiers int
	noise    float64
	rng      *stats.RNG
	snap     Snapshot

	// dropout suppresses counter updates (fault injection: the PMU
	// readout path is down). While set, Advance discards the quantum's
	// activity entirely and the snapshot — including its timestamp —
	// freezes, so a Meter diffing successive reads sees no elapsed time
	// and reports "not ready" rather than fabricating a rate.
	dropout       bool
	droppedQuanta int64

	mAdvances *obs.Counter
	mReads    *obs.Counter
	mDropped  *obs.Counter
}

// SetObs installs the metrics registry (nil disables instrumentation).
// cha_reads counts Read calls: the engine reads once per quantum and
// hands that one snapshot to every tenant, so it counts quanta, not
// tenant observations.
func (c *Counters) SetObs(r *obs.Registry) {
	c.mAdvances = r.Counter("cha_advances")
	c.mReads = r.Counter("cha_reads")
	c.mDropped = r.Counter("cha_dropped_advances")
}

// NewCounters returns a counter bank for numTiers tiers. noiseStdDev is
// the relative standard deviation of multiplicative measurement noise
// applied to each quantum's increments (0 disables noise); rng may be
// nil when noiseStdDev is 0.
func NewCounters(numTiers int, noiseStdDev float64, rng *stats.RNG) *Counters {
	if numTiers <= 0 {
		panic("cha: numTiers must be positive")
	}
	if noiseStdDev < 0 {
		panic("cha: negative noise")
	}
	if noiseStdDev > 0 && rng == nil {
		panic("cha: noise requires an RNG")
	}
	return &Counters{
		numTiers: numTiers,
		noise:    noiseStdDev,
		rng:      rng,
		snap: Snapshot{
			Inserts:             make([]float64, numTiers),
			OccupancyIntegralNs: make([]float64, numTiers),
		},
	}
}

// Advance accumulates one quantum of activity: durNs nanoseconds during
// which tier t served readRatePerSec[t] requests/sec at latencyNs[t].
// The occupancy integral increment is rate*latency*duration — the
// forward direction of Little's law.
func (c *Counters) Advance(durNs float64, readRatePerSec, latencyNs []float64) {
	if len(readRatePerSec) != c.numTiers || len(latencyNs) != c.numTiers {
		panic(fmt.Sprintf("cha: Advance with %d/%d entries for %d tiers",
			len(readRatePerSec), len(latencyNs), c.numTiers))
	}
	if durNs < 0 {
		panic("cha: negative duration")
	}
	if c.dropout {
		c.droppedQuanta++
		c.mDropped.Inc()
		return
	}
	c.mAdvances.Inc()
	c.snap.TimeNs += durNs
	for t := 0; t < c.numTiers; t++ {
		ins := readRatePerSec[t] * durNs * 1e-9
		occ := readRatePerSec[t] * 1e-9 * latencyNs[t] * durNs
		if c.noise > 0 {
			ins *= c.factor()
			occ *= c.factor()
		}
		c.snap.Inserts[t] += ins
		c.snap.OccupancyIntegralNs[t] += occ
	}
}

// factor returns a multiplicative noise factor clamped away from zero.
func (c *Counters) factor() float64 {
	f := 1 + c.noise*c.rng.NormFloat64()
	if f < 0.01 {
		f = 0.01
	}
	return f
}

// SetDropout starts or ends a counter-sample outage. While active,
// every Advance is discarded and Read keeps returning the frozen
// pre-outage snapshot; consumers must hold their last estimates until
// samples return.
func (c *Counters) SetDropout(active bool) { c.dropout = active }

// DroppedQuanta returns how many Advance calls the dropout discarded.
func (c *Counters) DroppedQuanta() int64 { return c.droppedQuanta }

// Read returns a copy of the cumulative counters, like an MSR read.
func (c *Counters) Read() Snapshot {
	c.mReads.Inc()
	out := Snapshot{
		TimeNs:              c.snap.TimeNs,
		Inserts:             append([]float64(nil), c.snap.Inserts...),
		OccupancyIntegralNs: append([]float64(nil), c.snap.OccupancyIntegralNs...),
	}
	return out
}

// Measurement is the per-tier quantity derived from two counter reads.
type Measurement struct {
	// Occupancy is the average number of queued requests for the tier.
	Occupancy float64
	// RatePerSec is the average request arrival rate.
	RatePerSec float64
	// LatencyNs is the Little's-law latency Occupancy/Rate; 0 if the
	// tier received no requests in the interval.
	LatencyNs float64
}

// Meter diffs successive snapshots into per-interval measurements, the
// way Colloid's polling thread reads the PMU.
type Meter struct {
	numTiers int
	prev     Snapshot
	primed   bool
	// out holds the last interval's measurements, reused by each
	// Observe.
	out []Measurement
}

// NewMeter returns a meter for numTiers tiers.
func NewMeter(numTiers int) *Meter {
	return &Meter{numTiers: numTiers}
}

// Observe consumes a snapshot and returns measurements for the interval
// since the previous one. The first call primes the meter and returns
// ok=false. The meter keeps s as its previous read and never writes it,
// so one snapshot may be shared by several meters. The measurements
// live in a buffer the meter owns, valid until the next Observe.
func (m *Meter) Observe(s Snapshot) (out []Measurement, ok bool) {
	if len(s.Inserts) != m.numTiers {
		panic("cha: snapshot tier count mismatch")
	}
	if !m.primed {
		m.prev = s
		m.primed = true
		return nil, false
	}
	dt := s.TimeNs - m.prev.TimeNs
	if dt <= 0 {
		return nil, false
	}
	if m.out == nil {
		m.out = make([]Measurement, m.numTiers)
	}
	out = m.out
	for t := 0; t < m.numTiers; t++ {
		dIns := s.Inserts[t] - m.prev.Inserts[t]
		dOcc := s.OccupancyIntegralNs[t] - m.prev.OccupancyIntegralNs[t]
		meas := Measurement{
			Occupancy:  dOcc / dt,
			RatePerSec: dIns / (dt * 1e-9),
		}
		if dIns > 0 {
			// Little's law: L = O/R, with O in requests and R in
			// requests/ns giving latency in ns.
			meas.LatencyNs = dOcc / dIns
		}
		out[t] = meas
	}
	m.prev = s
	return out, true
}
