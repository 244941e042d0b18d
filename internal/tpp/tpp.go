// Package tpp reimplements TPP (ASPLOS'23, as upstreamed in Linux
// v6.3) per Section 4.3 of the Colloid paper: periodic page-table scans
// mark pages with a protection bit; the next access takes a hint fault;
// a page is classified hot from its time-to-fault against a dynamically
// adapted threshold; hot alternate-tier pages are promoted synchronously
// at fault time, while kswapd demotes cold pages from the default tier
// under capacity watermark pressure.
//
// The Colloid integration enables hint faults on default-tier pages too
// and gates promotion/demotion at fault time on the Colloid decision:
// promote a faulting alternate-tier page only if the alternate tier's
// latency exceeds the default's and the page's access probability
// p = 1/(ttf * r) fits in the remaining delta-p budget, and
// symmetrically for demotion.
package tpp

import (
	"colloid/internal/access"
	"colloid/internal/core"
	"colloid/internal/memsys"
	"colloid/internal/obs"
	"colloid/internal/pages"
	"colloid/internal/sim"
)

// Config selects vanilla TPP or TPP with Colloid.
type Config struct {
	// Colloid enables the Colloid integration; nil is vanilla TPP.
	Colloid *core.Options
}

// TPP's fixed parameters: this model's settings for the Linux v6.3
// mechanisms Section 4.3 of the Colloid paper describes, the
// NUMA-balancing page-table scanner, its adaptive hot-page threshold
// and kswapd's free watermark.
const (
	// scanIntervalSec is the page-table scan period. The kernel's
	// NUMA-balancing scanner covers memory slowly, which is why TPP
	// converges orders of magnitude slower than HeMem.
	scanIntervalSec = 30
	// hotTTFSec is the initial time-to-fault threshold below which a
	// faulting page counts as hot (100 ms), adapted at runtime.
	hotTTFSec = 0.1
	// freeWatermarkFrac is the fraction of default-tier capacity kswapd
	// keeps free.
	freeWatermarkFrac = 0.02
	// quantumSec is the cadence of threshold adaptation and the Colloid
	// controller.
	quantumSec = 1
)

// System is one TPP instance.
type System struct {
	cfg     Config
	scanner *access.HintFaultScanner
	colloid *core.Controller
	// faults holds the quantum's hint faults, reused across quanta.
	faults []access.Fault

	// ttfThresh is the adaptive hot classification threshold.
	ttfThresh float64
	// lastTTF[id] is page id's most recent time-to-fault, -1 before its
	// first fault (a drawn time-to-fault is never negative); large
	// values mean cold. kswapd prefers demoting the coldest of a probe
	// set, mirroring the kernel's LRU aging at fault granularity.
	lastTTF []float64

	// Colloid per-quantum budget state.
	deltaPLeft float64
	mode       core.Mode
	rate       []float64

	lastQuantumSec  float64
	promotedQuantum int64
	started         bool

	// mHintFaults and mKswapd count hint faults and kswapd demotions,
	// bound on the first step.
	mHintFaults, mKswapd *obs.Counter
}

// New returns a TPP instance.
func New(cfg Config) *System {
	return &System{
		cfg:       cfg,
		ttfThresh: hotTTFSec,
	}
}

// Name identifies the system.
func (s *System) Name() string {
	if s.cfg.Colloid != nil {
		return "tpp+colloid"
	}
	return "tpp"
}

// Step implements sim.System.
//
// TPP's hot loop draws one RNG fault decision per marked page in
// marking order, so it cannot shard without changing behavior.
func (s *System) Step(ctx *sim.Context) {
	if s.scanner == nil {
		s.scanner = access.NewHintFaultScanner(ctx.AS, ctx.RNG, scanIntervalSec)
		s.lastTTF = make([]float64, ctx.AS.NumPages())
		for i := range s.lastTTF {
			s.lastTTF[i] = -1
		}
		s.mHintFaults = ctx.Obs.Counter("tpp_hint_faults")
		s.mKswapd = ctx.Obs.Counter("tpp_kswapd_demotions")
	}
	if s.cfg.Colloid != nil && s.colloid == nil {
		opts := *s.cfg.Colloid
		if opts.StaticLimitBytesPerSec == 0 {
			opts.StaticLimitBytesPerSec = ctx.Migrator.StaticLimitBytesPerSec()
		}
		unloaded := make([]float64, ctx.Topo.NumTiers())
		for t := range unloaded {
			unloaded[t] = ctx.Topo.Tier(memsys.TierID(t)).Config().UnloadedLatencyNs
		}
		opts.UnloadedLatencyNs = unloaded
		if opts.Obs == nil {
			opts.Obs = ctx.Obs
		}
		s.colloid = core.NewController(ctx.Topo.NumTiers(), opts)
	}

	// Quantum bookkeeping: adapt the threshold and refresh the Colloid
	// decision once per quantumSec.
	if !s.started || ctx.TimeSec-s.lastQuantumSec >= quantumSec-1e-12 {
		s.onQuantum(ctx)
		s.started = true
		s.lastQuantumSec = ctx.TimeSec
	}

	s.faults = s.scanner.Step(s.faults[:0], ctx.TimeSec, ctx.QuantumSec, ctx.AppRequestRate)
	s.mHintFaults.Add(int64(len(s.faults)))
	for _, f := range s.faults {
		s.lastTTF[f.Page] = f.TimeToFaultSec
		if s.cfg.Colloid != nil {
			s.onFaultColloid(ctx, f)
		} else {
			s.onFaultVanilla(ctx, f)
		}
	}

	s.kswapd(ctx)
}

// onQuantum adapts the hot threshold (vanilla) and refreshes the
// Colloid decision and delta-p budget.
func (s *System) onQuantum(ctx *sim.Context) {
	// Threshold adaptation, as in the kernel's hot-page selection: aim
	// to spend roughly the migration budget. Too many promotions ->
	// stricter (smaller ttf); too few -> looser.
	budget := int64(ctx.Migrator.StaticLimitBytesPerSec() * quantumSec)
	if budget > 0 {
		switch {
		case s.promotedQuantum >= budget*9/10:
			s.ttfThresh *= 0.8
		case s.promotedQuantum < budget/4:
			s.ttfThresh *= 1.25
		}
		if s.ttfThresh < 1e-4 {
			s.ttfThresh = 1e-4
		}
		if s.ttfThresh > 10 {
			s.ttfThresh = 10
		}
	}
	s.promotedQuantum = 0

	if s.colloid != nil {
		d, ok := s.colloid.Observe(ctx.CHA)
		if !ok {
			s.mode = core.Hold
			s.deltaPLeft = 0
			return
		}
		s.mode = d.Mode
		s.deltaPLeft = d.DeltaP
		s.rate = d.RatePerSec
	}
}

// onFaultVanilla promotes hot alternate-tier pages at fault time.
func (s *System) onFaultVanilla(ctx *sim.Context, f access.Fault) {
	if ctx.AS.Tier(f.Page) == memsys.DefaultTier {
		return
	}
	if f.TimeToFaultSec > s.ttfThresh {
		return // cold
	}
	bytes := ctx.AS.PageBytes()
	if !s.ensureDefaultFree(ctx, bytes) {
		return
	}
	if err := ctx.Migrator.Move(f.Page, memsys.DefaultTier); err == nil {
		s.promotedQuantum += bytes
	}
}

// onFaultColloid gates fault-time migration on the Colloid decision,
// using p = 1/(ttf*r) as the page's access probability (Section 4.3).
func (s *System) onFaultColloid(ctx *sim.Context, f access.Fault) {
	tier := ctx.AS.Tier(f.Page)
	if s.mode == core.Hold || s.deltaPLeft <= 0 {
		return
	}
	prob := s.faultProbability(f, tier)
	if prob > s.deltaPLeft {
		return
	}
	switch {
	case s.mode == core.Promote && tier != memsys.DefaultTier:
		bytes := ctx.AS.PageBytes()
		if !s.ensureDefaultFree(ctx, bytes) {
			return
		}
		if err := ctx.Migrator.Move(f.Page, memsys.DefaultTier); err == nil {
			s.deltaPLeft -= prob
			s.promotedQuantum += bytes
		}
	case s.mode == core.Demote && tier == memsys.DefaultTier:
		if err := ctx.Migrator.Move(f.Page, ctx.AS.SpillTier()); err == nil {
			s.deltaPLeft -= prob
		}
	}
}

// faultProbability estimates a page's access probability from its
// time-to-fault and the measured request rate of its tier.
func (s *System) faultProbability(f access.Fault, tier memsys.TierID) float64 {
	if len(s.rate) <= int(tier) || s.rate[tier] <= 0 {
		return 1 // unmeasurable: treat as too hot to move this quantum
	}
	ttf := f.TimeToFaultSec
	if ttf < 1e-6 {
		ttf = 1e-6 // fault landed immediately; cap the estimate
	}
	return 1 / (ttf * s.rate[tier])
}

// ensureDefaultFree performs direct reclaim: demote cold victims until
// the requested bytes fit in the default tier.
func (s *System) ensureDefaultFree(ctx *sim.Context, bytes int64) bool {
	guard := 0
	for ctx.AS.FreeBytes(memsys.DefaultTier) < bytes && guard < 64 {
		guard++
		victim := s.findColdVictim(ctx)
		if victim == pages.NoPage {
			return false
		}
		if err := ctx.Migrator.MoveForced(victim, ctx.AS.SpillTier()); err != nil {
			return false
		}
	}
	return ctx.AS.FreeBytes(memsys.DefaultTier) >= bytes
}

// kswapd demotes cold pages when the default tier crosses its free
// watermark; these demotions are capacity-driven and bypass the
// proactive migration rate limit, as in the kernel.
func (s *System) kswapd(ctx *sim.Context) {
	watermark := int64(freeWatermarkFrac * float64(ctx.Topo.Capacity(memsys.DefaultTier)))
	guard := 0
	for ctx.AS.FreeBytes(memsys.DefaultTier) < watermark && guard < 64 {
		guard++
		victim := s.findColdVictim(ctx)
		if victim == pages.NoPage {
			return
		}
		if err := ctx.Migrator.MoveForced(victim, ctx.AS.SpillTier()); err != nil {
			return
		}
		s.mKswapd.Inc()
	}
}

// findColdVictim probes default-tier pages and returns the coldest of
// the probe set: the page with the largest (or missing) last
// time-to-fault. This is the inactive-list approximation — fault
// latency is the same signal the promotion path classifies on.
func (s *System) findColdVictim(ctx *sim.Context) pages.PageID {
	n := ctx.AS.NumPages()
	best := pages.NoPage
	bestTTF := -1.0
	found := 0
	for probe := 0; probe < 64 && found < 16; probe++ {
		id := pages.PageID(ctx.RNG.Intn(n))
		if ctx.AS.Tier(id) != memsys.DefaultTier {
			continue
		}
		found++
		ttf := s.lastTTF[id]
		if ttf < 0 {
			// Never faulted since tracking began: treat as coldest.
			return id
		}
		if ttf > bestTTF {
			bestTTF = ttf
			best = id
		}
	}
	return best
}

// TTFThreshold exposes the adaptive threshold for tests.
func (s *System) TTFThreshold() float64 { return s.ttfThresh }
