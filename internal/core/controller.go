// Package core implements Colloid, the paper's contribution: tiered
// memory management by the principle of balancing access latencies.
//
// A Controller consumes CHA counter snapshots each quantum, derives
// per-tier loaded latencies via Little's law with EWMA smoothing
// (Section 3.1), and runs the page placement algorithm of Section 3.2:
// Algorithm 2's watermark binary search computes the desired shift in
// access probability (delta-p) between the default and alternate tiers,
// and Algorithm 1 turns it into a promotion or demotion decision with a
// dynamic migration limit min(delta-p * (R_D + R_A) * 64, M).
//
// The Controller is deliberately independent of any particular tiering
// system: HeMem, TPP and MEMTIS integrations feed it their own CHA
// snapshots and use their own access-tracking structures to find the
// pages realizing delta-p (Section 4); HeMem and MEMTIS offer theirs to
// a Picker that holds the decision's budgets.
package core

import (
	"fmt"

	"colloid/internal/cha"
	"colloid/internal/memsys"
	"colloid/internal/obs"
	"colloid/internal/stats"
)

// Mode is the placement direction for the current quantum.
type Mode int

// Placement directions: Hold (latencies balanced within delta), Promote
// (default tier is faster; move hot pages in), Demote (default tier is
// slower; move hot pages out).
const (
	Hold Mode = iota
	Promote
	Demote
)

// String renders the mode.
func (m Mode) String() string {
	switch m {
	case Hold:
		return "hold"
	case Promote:
		return "promote"
	case Demote:
		return "demote"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configures a Controller.
type Options struct {
	// Epsilon is the watermark-gap threshold for detecting a shifted
	// equilibrium point (paper default 0.01).
	Epsilon float64
	// Delta is the latency deadband: latencies within a factor Delta of
	// each other count as balanced (paper default 0.05).
	Delta float64
	// EWMAAlpha smooths occupancy and rate measurements (default 0.3).
	EWMAAlpha float64
	// StaticLimitBytesPerSec is M, the maximum migration rate; the
	// dynamic limit never exceeds it. 0 means no static cap.
	StaticLimitBytesPerSec float64
	// UnloadedLatencyNs optionally supplies per-tier unloaded latencies
	// used as a prior for tiers that received no traffic in an interval
	// (an idle tier's Little's-law latency is 0/0; its true latency is
	// its unloaded latency).
	UnloadedLatencyNs []float64
	// Obs receives controller metrics and trace events (mode
	// transitions, deadband holds, watermark resets). Nil disables
	// instrumentation.
	Obs *obs.Registry

	// Ablation switches (DESIGN.md section 4). All default off — the
	// full Colloid design. They exist so the ablation experiments can
	// quantify what each mechanism contributes.

	// AblateEWMA feeds raw per-quantum Little's-law samples to the
	// placement algorithm instead of EWMA-smoothed ones.
	AblateEWMA bool
	// AblateDynamicLimit drops the min(deltaP*(R_D+R_A)*64, M) limit,
	// leaving only the static migration limit M.
	AblateDynamicLimit bool
	// AblateWatermarkReset disables the epsilon reset, so a shifted
	// equilibrium point outside [pLo, pHi] is never re-bracketed
	// (Figure 4(c) fails).
	AblateWatermarkReset bool
	// ProportionalShift replaces Algorithm 2's binary search with a
	// proportional controller deltaP = gain * |L_D-L_A|/(L_D+L_A),
	// for comparing convergence behaviour.
	ProportionalShift float64
}

func (o Options) withDefaults() Options {
	if o.Epsilon == 0 {
		o.Epsilon = 0.01
	}
	if o.Delta == 0 {
		o.Delta = 0.05
	}
	if o.EWMAAlpha == 0 {
		o.EWMAAlpha = 0.3
	}
	return o
}

// Decision is the outcome of one controller quantum.
type Decision struct {
	// Mode is the migration direction.
	Mode Mode
	// DeltaP is the desired shift in access probability (Algorithm 2).
	DeltaP float64
	// P is the measured share of requests served by the default tier.
	P float64
	// LatencyNs[t] is the smoothed Little's-law latency of tier t.
	LatencyNs []float64
	// RatePerSec[t] is the smoothed request rate of tier t.
	RatePerSec []float64
	// MigrationLimitBytesPerSec is the dynamic limit
	// min(DeltaP*(R_D+R_A)*64, M); multiply by the system quantum for a
	// per-quantum byte budget. Zero when Mode is Hold.
	MigrationLimitBytesPerSec float64
}

// Controller runs Colloid's measurement pipeline and Algorithm 2 for a
// two-tier system (tier 0 = default; with more tiers, alternates are
// aggregated — see MultiController for fully general topologies).
type Controller struct {
	opts    Options
	measure measure
	pLo     float64
	pHi     float64

	// Instrumentation. lastMode tracks transitions; deadbandHit is set
	// by computeShift so Observe can attribute a Hold to the deadband.
	reg         *obs.Registry
	mObserves   *obs.Counter
	mDecisions  *obs.Counter
	mDeadband   *obs.Counter
	mTransition *obs.Counter
	mWmReset    *obs.Counter
	mStaleHolds *obs.Counter
	gPLo        *obs.Gauge
	gPHi        *obs.Gauge
	lastMode    Mode
	modePrimed  bool
	deadbandHit bool
	inDeadband  bool

	// Staleness tracking (graceful degradation under counter dropout):
	// a snapshot whose timestamp has not advanced past the last one means
	// the counter readout path is down. The controller freezes — EWMAs,
	// pLo/pHi and mode untouched — and reports not-ok so callers hold
	// their previous placement, then emits a recovery event on the first
	// fresh measurement.
	lastTimeNs    float64
	timePrimed    bool
	inStale       bool
	staleObserves int64
	lastP         float64
}

// NewController returns a controller for numTiers tiers (>= 2).
func NewController(numTiers int, opts Options) *Controller {
	if numTiers < 2 {
		panic("core: controller needs at least two tiers")
	}
	o := opts.withDefaults()
	if o.AblateEWMA {
		o.EWMAAlpha = 1 // EWMA with alpha 1 tracks raw samples exactly
	}
	c := &Controller{
		opts:    o,
		measure: newMeasure(numTiers, o),
		pLo:     0,
		pHi:     1,
	}
	c.reg = o.Obs
	c.mObserves = c.reg.Counter("ctrl_observes")
	c.mDecisions = c.reg.Counter("ctrl_decisions")
	c.mDeadband = c.reg.Counter("ctrl_deadband_holds")
	c.mTransition = c.reg.Counter("ctrl_mode_transitions")
	c.mWmReset = c.reg.Counter("ctrl_watermark_resets")
	c.mStaleHolds = c.reg.Counter("ctrl_stale_holds")
	c.gPLo = c.reg.Gauge("ctrl_p_lo")
	c.gPHi = c.reg.Gauge("ctrl_p_hi")
	return c
}

// Watermarks returns the current (pLo, pHi) pair, exposed for tests and
// for the Figure 4 trace.
func (c *Controller) Watermarks() (pLo, pHi float64) { return c.pLo, c.pHi }

// Observe consumes a cumulative CHA snapshot taken at the end of a
// controller quantum and returns the placement decision. ok is false
// while the controller is still priming (first snapshot) or when the
// interval carried no traffic.
func (c *Controller) Observe(snap cha.Snapshot) (d Decision, ok bool) {
	c.mObserves.Inc()
	if c.timePrimed && snap.TimeNs <= c.lastTimeNs {
		// Frozen counters (sample dropout): hold every estimate. The
		// event fires once per outage; the counter counts held quanta.
		c.mStaleHolds.Inc()
		c.staleObserves++
		if !c.inStale {
			c.inStale = true
			c.reg.Emit(obs.EvCounterStale, obs.F("p", c.lastP))
		}
		return Decision{}, false
	}
	c.lastTimeNs = snap.TimeNs
	c.timePrimed = true
	lat, rate, totalRate, ready := c.measure.observe(snap)
	if !ready {
		return Decision{}, false
	}
	if c.inStale {
		c.inStale = false
		c.reg.Emit(obs.EvCounterRecovered,
			obs.F("stale_observes", float64(c.staleObserves)),
			obs.F("p", c.lastP))
		c.staleObserves = 0
	}
	if totalRate <= 0 {
		return Decision{}, false
	}
	// Aggregate alternates: p is the default tier's share; the
	// alternate latency is the rate-weighted mean over alternates.
	p := rate[0] / totalRate
	lD := lat[0]
	var lA, aRate float64
	for t := 1; t < len(lat); t++ {
		lA += lat[t] * rate[t]
		aRate += rate[t]
	}
	if aRate > 0 {
		lA /= aRate
	} else if len(c.opts.UnloadedLatencyNs) > 1 {
		// No alternate traffic observed: an idle tier runs at its
		// unloaded latency.
		lA = c.opts.UnloadedLatencyNs[1]
	} else {
		// Without a prior, treat the alternate as balanced so a zero
		// signal cannot create promotion pressure.
		lA = lD
	}

	d = Decision{
		P:          p,
		LatencyNs:  lat,
		RatePerSec: rate,
	}
	deltaP := c.computeShift(p, lD, lA)
	if deltaP <= 0 {
		d.Mode = Hold
		return c.finish(d), true
	}
	if lD < lA {
		d.Mode = Promote
	} else {
		d.Mode = Demote
	}
	d.DeltaP = deltaP
	// Dynamic migration limit (Section 3.2): migrating more bytes/sec
	// than the desired rate perturbation deltaP*(R_D+R_A) wastes
	// bandwidth and causes oscillation.
	d.MigrationLimitBytesPerSec = deltaP * totalRate * memsys.CachelineBytes
	if c.opts.AblateDynamicLimit {
		d.MigrationLimitBytesPerSec = c.opts.StaticLimitBytesPerSec
		if d.MigrationLimitBytesPerSec == 0 {
			d.MigrationLimitBytesPerSec = 1e18 // unlimited
		}
	}
	if m := c.opts.StaticLimitBytesPerSec; m > 0 && d.MigrationLimitBytesPerSec > m {
		d.MigrationLimitBytesPerSec = m
	}
	return c.finish(d), true
}

// measure is the measurement stage both controllers share (Section
// 3.1): per-tier occupancy and rate EWMAs over a CHA meter, Little's-law
// latencies derived from the smoothed signals, and the unloaded-latency
// prior for tiers too idle to measure.
type measure struct {
	meter    *cha.Meter
	occ      []*stats.EWMA
	rate     []*stats.EWMA
	unloaded []float64 // per-tier unloaded latencies; nil without a prior
}

func newMeasure(numTiers int, o Options) measure {
	m := measure{
		meter: cha.NewMeter(numTiers),
		occ:   make([]*stats.EWMA, numTiers),
		rate:  make([]*stats.EWMA, numTiers),
	}
	if len(o.UnloadedLatencyNs) == numTiers {
		m.unloaded = o.UnloadedLatencyNs
	}
	for i := range m.occ {
		m.occ[i] = stats.NewEWMA(o.EWMAAlpha)
		m.rate[i] = stats.NewEWMA(o.EWMAAlpha)
	}
	return m
}

// observe folds a cumulative snapshot into the EWMAs and returns the
// smoothed per-tier latencies and rates with their total. ready is
// false while the meter primes on its first snapshot; a total of 0
// means the interval carried no traffic.
func (m *measure) observe(snap cha.Snapshot) (lat, rate []float64, total float64, ready bool) {
	meas, ready := m.meter.Observe(snap)
	if !ready {
		return nil, nil, 0, false
	}
	// EWMA-smooth occupancy and rate independently, then derive latency
	// from the smoothed signals.
	lat = make([]float64, len(m.occ))
	rate = make([]float64, len(m.occ))
	for t := range m.occ {
		o := m.occ[t].Observe(meas[t].Occupancy)
		r := m.rate[t].Observe(meas[t].RatePerSec)
		rate[t] = r
		total += r
		if r > 0 {
			// Rate in requests/ns for the Little's-law division.
			lat[t] = o / (r * 1e-9)
		}
	}
	// A tier whose traffic has (all but) vanished cannot be measured:
	// its occupancy and rate EWMAs decay together, freezing the
	// Little's-law ratio at a stale value. Treat such tiers as idle —
	// running at their unloaded latency when a prior is available,
	// otherwise 0 (which biases toward sending traffic back so the
	// tier becomes measurable again).
	for t := range lat {
		if rate[t] <= total*1e-6 {
			lat[t] = 0
			if m.unloaded != nil {
				lat[t] = m.unloaded[t]
			}
		}
	}
	return lat, rate, total, true
}

// finish records instrumentation for an emitted decision: decision and
// deadband counters, mode-transition events, and watermark gauges.
func (c *Controller) finish(d Decision) Decision {
	c.mDecisions.Inc()
	if c.deadbandHit {
		c.deadbandHit = false
		c.mDeadband.Inc()
		if !c.inDeadband {
			// Event only on entering the deadband; steady balanced runs
			// hold every quantum and would flood the trace otherwise.
			c.inDeadband = true
			c.reg.Emit(obs.EvDeadbandHold, obs.F("p", d.P))
		}
	} else {
		c.inDeadband = false
	}
	if c.modePrimed && d.Mode != c.lastMode {
		c.mTransition.Inc()
		c.reg.Emit(obs.EvModeTransition,
			obs.F("from", float64(c.lastMode)),
			obs.F("to", float64(d.Mode)),
			obs.F("p", d.P),
			obs.F("delta_p", d.DeltaP))
	}
	c.lastMode = d.Mode
	c.modePrimed = true
	c.lastP = d.P
	c.gPLo.Set(c.pLo)
	c.gPHi.Set(c.pHi)
	return d
}

// computeShift is Algorithm 2: binary-search watermarks with the
// epsilon reset for shifted equilibria.
func (c *Controller) computeShift(p, lD, lA float64) float64 {
	// Deadband relative to the larger of the two latencies, so the hold
	// region is symmetric in (lD, lA). Scaling by lD alone makes the
	// band collapse as lD shrinks (an idle default tier with no
	// unloaded-latency prior measures near zero), promoting on latency
	// gaps a demotion of the same magnitude would hold through.
	if abs(lD-lA) < c.opts.Delta*max(lD, lA) {
		c.deadbandHit = true
		return 0
	}
	if g := c.opts.ProportionalShift; g > 0 {
		// Ablation arm: proportional control instead of the watermark
		// binary search.
		return g * abs(lD-lA) / (lD + lA)
	}
	if lD < lA {
		c.pLo = p
	} else {
		c.pHi = p
	}
	if !c.opts.AblateWatermarkReset && c.pHi < c.pLo+c.opts.Epsilon {
		// Watermarks have collapsed but latencies are still unbalanced:
		// the equilibrium point moved outside [pLo, pHi]; reset the
		// side it escaped through (Figure 4(c)).
		c.mWmReset.Inc()
		c.reg.Emit(obs.EvWatermarkReset,
			obs.F("p_lo", c.pLo), obs.F("p_hi", c.pHi), obs.F("p", p))
		if lD < lA {
			c.pHi = 1
		} else {
			c.pLo = 0
		}
	}
	target := (c.pLo + c.pHi) / 2
	return abs(target - p)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
