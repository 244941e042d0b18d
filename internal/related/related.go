// Package related implements the two related-work placement policies
// the paper contrasts Colloid against in Section 6, so the comparison
// can be run rather than argued:
//
//   - BATMAN (Chou et al., MEMSYS'17) balances the *fraction of
//     accesses* to each tier according to the ratio of their theoretical
//     maximum bandwidths, independent of contention. The paper's
//     critique: with unequal unloaded latencies this parks hot pages in
//     the slow tier even when the fast tier is idle, and bandwidth
//     ratios ignore latency inflation that occurs before saturation.
//
//   - Carrefour (Dashti et al., ASPLOS'13), in its traffic-management
//     aspect, balances the *request rate* across memories. The paper's
//     critique: rate balance also ignores unloaded-latency asymmetry and
//     interconnect contention.
//
// Both reuse HeMem-style PEBS tracking for page temperatures and the
// same migration machinery as every other system here; only the target
// placement differs, which is exactly the paper's framing — placement
// policy is the variable under test.
package related

import (
	"errors"

	"colloid/internal/heat"
	"colloid/internal/memsys"
	"colloid/internal/migrate"
	"colloid/internal/pages"
	"colloid/internal/sim"
)

// Policy selects the placement target.
type Policy int

// The two related-work policies.
const (
	// BATMAN targets access fractions proportional to tier peak
	// bandwidths.
	BATMAN Policy = iota
	// Carrefour targets equal request rates across tiers.
	Carrefour
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case BATMAN:
		return "batman"
	case Carrefour:
		return "carrefour"
	default:
		return "related(?)"
	}
}

// Config selects a related-work system.
type Config struct {
	// Policy picks BATMAN or Carrefour.
	Policy Policy
}

// Both policies track page heat at HeMem's default sampling rate,
// cooling threshold and decision cadence.
const (
	// sampleRatePerSec is the PEBS sampling rate.
	sampleRatePerSec = 50_000
	// coolThreshold is the frequency cooling threshold.
	coolThreshold = 16
	// quantumSec is the decision cadence (10 ms).
	quantumSec = 0.01
	// deadband is the tolerated deviation from the target share before
	// migrating.
	deadband = 0.02
)

// System implements sim.System for either policy.
type System struct {
	cfg     Config
	tracker heat.Tracker   // built lazily from Context.Heat on first Step
	draws   []pages.PageID // the quantum's PEBS samples, reused

	sampleCarry float64
	lastRunSec  float64
	started     bool
}

// New returns a related-work system.
func New(cfg Config) *System {
	return &System{cfg: cfg}
}

// Name identifies the system.
func (s *System) Name() string { return s.cfg.Policy.String() }

// Step implements sim.System.
func (s *System) Step(ctx *sim.Context) {
	if s.tracker == nil {
		s.tracker = ctx.Heat.NewTracker(coolThreshold)
	}
	s.tracker.SetWorkers(ctx.Workers)
	s.samplePEBS(ctx)
	if !s.started {
		s.started = true
		s.lastRunSec = ctx.TimeSec
		return
	}
	if ctx.TimeSec-s.lastRunSec < quantumSec-1e-12 {
		return
	}
	s.lastRunSec = ctx.TimeSec
	// Both policies balance the managed application's own accesses
	// (BATMAN instruments the application; Carrefour uses per-node IBS
	// samples), so the share estimate comes from the PEBS-derived page
	// temperatures rather than the socket-wide CHA counters.
	p, ok := s.measuredDefaultShare(ctx)
	if !ok {
		return
	}
	target := s.targetShare(ctx)
	switch {
	case p > target+deadband:
		s.shift(ctx, memsys.DefaultTier, ctx.AS.SpillTier(), p-target)
	case p < target-deadband:
		s.shift(ctx, ctx.AS.SpillTier(), memsys.DefaultTier, target-p)
	}
}

// measuredDefaultShare estimates the app's default-tier access share
// from tracked page temperatures.
func (s *System) measuredDefaultShare(ctx *sim.Context) (float64, bool) {
	if s.tracker.Total() == 0 {
		return 0, false
	}
	var inDefault float64
	s.tracker.ForEach(func(id pages.PageID, count uint32) {
		p := ctx.AS.Get(id)
		if p.Tier == memsys.DefaultTier {
			inDefault += float64(count)
		}
	})
	return inDefault / float64(s.tracker.Total()), true
}

// targetShare computes the policy's desired default-tier access share.
func (s *System) targetShare(ctx *sim.Context) float64 {
	switch s.cfg.Policy {
	case BATMAN:
		// Proportional to theoretical peak bandwidths, the policy's
		// defining choice.
		var total float64
		for t := 0; t < ctx.Topo.NumTiers(); t++ {
			total += ctx.Topo.Tier(memsys.TierID(t)).Config().PeakBandwidth
		}
		return ctx.Topo.Tier(memsys.DefaultTier).Config().PeakBandwidth / total
	case Carrefour:
		// Equal request rate on every memory.
		return 1 / float64(ctx.Topo.NumTiers())
	default:
		return 1
	}
}

// shift migrates pages from one tier toward another until the
// access-share deficit or the migration budget is consumed, visiting
// the hottest pages first so the rate-limited budget moves the most
// access share per byte.
func (s *System) shift(ctx *sim.Context, from, to memsys.TierID, deficit float64) {
	moved := 0.0
	s.tracker.ForEachHottest(func(id pages.PageID, count uint32) bool {
		if moved >= deficit {
			return true
		}
		p := ctx.AS.Get(id)
		if p.Tier != from {
			return false
		}
		prob := s.tracker.Probability(id)
		if prob <= 0 || prob > deficit-moved {
			return false
		}
		if ctx.AS.FreeBytes(to) < p.Bytes {
			if !s.evictCold(ctx, to, p.Bytes) {
				return false
			}
		}
		err := ctx.Migrator.Move(id, to)
		if errors.Is(err, migrate.ErrLimit) {
			return true
		}
		if err == nil {
			moved += prob
			ctx.Obs.Counter("related_shift_moves").Inc()
		}
		return false
	})
}

// evictCold frees space on tier to by pushing an untracked (cold) page
// to another tier.
func (s *System) evictCold(ctx *sim.Context, to memsys.TierID, bytes int64) bool {
	dst := memsys.DefaultTier
	if to == memsys.DefaultTier {
		dst = ctx.AS.SpillTier()
	}
	n := ctx.AS.NumPages()
	for probe := 0; probe < 64; probe++ {
		id := pages.PageID(ctx.RNG.Intn(n))
		p := ctx.AS.Get(id)
		if p.Tier != to {
			continue
		}
		if s.tracker.Count(id) > 0 {
			continue
		}
		return ctx.Migrator.MoveForced(id, dst) == nil && ctx.AS.FreeBytes(to) >= bytes
	}
	return false
}

func (s *System) samplePEBS(ctx *sim.Context) {
	s.sampleCarry += sampleRatePerSec * ctx.QuantumSec
	n := int(s.sampleCarry)
	s.sampleCarry -= float64(n)
	s.draws = ctx.Sampler.SampleN(s.draws[:0], n)
	for _, id := range s.draws {
		s.tracker.Touch(id)
	}
}
