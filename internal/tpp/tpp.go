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
	"colloid/internal/migrate"
	"colloid/internal/pages"
	"colloid/internal/sim"
)

// Config tunes TPP.
type Config struct {
	// ScanIntervalSec is the page-table scan period (default 30 s; the
	// kernel's NUMA-balancing scanner covers memory slowly, which is
	// why TPP converges orders of magnitude slower than HeMem).
	ScanIntervalSec float64
	// HotTTFSec is the initial time-to-fault threshold below which a
	// faulting page counts as hot (default 100 ms), adapted at runtime.
	HotTTFSec float64
	// FreeWatermarkFrac is the fraction of default-tier capacity kswapd
	// keeps free (default 0.02).
	FreeWatermarkFrac float64
	// QuantumSec is the cadence of threshold adaptation and the Colloid
	// controller (default 1 s).
	QuantumSec float64
	// Colloid enables the Colloid integration; nil is vanilla TPP.
	Colloid *core.Options
}

func (c Config) withDefaults() Config {
	if c.ScanIntervalSec == 0 {
		c.ScanIntervalSec = 30
	}
	if c.HotTTFSec == 0 {
		c.HotTTFSec = 0.1
	}
	if c.FreeWatermarkFrac == 0 {
		c.FreeWatermarkFrac = 0.02
	}
	if c.QuantumSec == 0 {
		c.QuantumSec = 1
	}
	return c
}

// System is one TPP instance.
type System struct {
	cfg     Config
	scanner *access.HintFaultScanner
	colloid *core.Controller

	// ttfThresh is the adaptive hot classification threshold.
	ttfThresh float64
	// lastFaultSec approximates the kernel's active/inactive LRU: cold
	// demotion victims are pages without a recent fault.
	lastFaultSec map[pages.PageID]float64
	// lastTTF remembers each page's most recent time-to-fault; large
	// values mean cold. kswapd prefers demoting the coldest of a probe
	// set, mirroring the kernel's LRU aging at fault granularity.
	lastTTF map[pages.PageID]float64

	// Colloid per-quantum budget state.
	deltaPLeft float64
	mode       core.Mode
	rate       []float64

	lastQuantumSec  float64
	promotedQuantum int64
	started         bool

	// kswapd batching scratch, reused across quanta.
	kswapdReqs   []migrate.Request
	kswapdChosen map[pages.PageID]bool
	kswapdSpill  []int64
}

// New returns a TPP instance.
func New(cfg Config) *System {
	cfg = cfg.withDefaults()
	return &System{
		cfg:          cfg,
		ttfThresh:    cfg.HotTTFSec,
		lastFaultSec: make(map[pages.PageID]float64),
		lastTTF:      make(map[pages.PageID]float64),
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
		s.scanner = access.NewHintFaultScanner(ctx.AS, ctx.RNG, s.cfg.ScanIntervalSec, 0)
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
	// decision once per QuantumSec.
	if !s.started || ctx.TimeSec-s.lastQuantumSec >= s.cfg.QuantumSec-1e-12 {
		s.onQuantum(ctx)
		s.started = true
		s.lastQuantumSec = ctx.TimeSec
	}

	faults := s.scanner.Step(ctx.TimeSec, ctx.QuantumSec, ctx.AppRequestRate)
	ctx.Obs.Counter("tpp_hint_faults").Add(int64(len(faults)))
	for _, f := range faults {
		s.lastFaultSec[f.Page] = ctx.TimeSec
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
	budget := int64(ctx.Migrator.StaticLimitBytesPerSec() * s.cfg.QuantumSec)
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
	p := ctx.AS.Get(f.Page)
	if p.Tier == memsys.DefaultTier {
		return
	}
	if f.TimeToFaultSec > s.ttfThresh {
		return // cold
	}
	if !s.ensureDefaultFree(ctx, p.Bytes) {
		return
	}
	if err := ctx.Migrator.Move(f.Page, memsys.DefaultTier); err == nil {
		s.promotedQuantum += p.Bytes
	}
}

// onFaultColloid gates fault-time migration on the Colloid decision,
// using p = 1/(ttf*r) as the page's access probability (Section 4.3).
func (s *System) onFaultColloid(ctx *sim.Context, f access.Fault) {
	p := ctx.AS.Get(f.Page)
	if s.mode == core.Hold || s.deltaPLeft <= 0 {
		return
	}
	prob := s.faultProbability(f, p.Tier)
	if prob > s.deltaPLeft {
		return
	}
	switch {
	case s.mode == core.Promote && p.Tier != memsys.DefaultTier:
		if !s.ensureDefaultFree(ctx, p.Bytes) {
			return
		}
		if err := ctx.Migrator.Move(f.Page, memsys.DefaultTier); err == nil {
			s.deltaPLeft -= prob
			s.promotedQuantum += p.Bytes
		}
	case s.mode == core.Demote && p.Tier == memsys.DefaultTier:
		if err := ctx.Migrator.Move(f.Page, s.spillTier(ctx)); err == nil {
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
		if err := ctx.Migrator.MoveForced(victim, s.spillTier(ctx)); err != nil {
			return false
		}
	}
	return ctx.AS.FreeBytes(memsys.DefaultTier) >= bytes
}

// kswapd demotes cold pages when the default tier crosses its free
// watermark; these demotions are capacity-driven and bypass the
// proactive migration rate limit, as in the kernel.
//
// Victims are selected up front with pending-move mirrors of the free
// and spill space and applied in one MoveBatchForced. Already-chosen
// victims are excluded from later probes exactly where the sequential
// loop's tier check would have skipped them (the page had already moved
// off the default tier), so RNG draws and victim choices are identical.
// Fault windows make forced-move outcomes unpredictable, so they take
// the sequential path.
func (s *System) kswapd(ctx *sim.Context) {
	watermark := int64(s.cfg.FreeWatermarkFrac * float64(ctx.Topo.Capacity(memsys.DefaultTier)))
	if ctx.Migrator.FaultActive() {
		s.kswapdSeq(ctx, watermark)
		return
	}
	free := ctx.AS.FreeBytes(memsys.DefaultTier)
	if free >= watermark {
		return
	}
	if s.kswapdChosen == nil {
		s.kswapdChosen = make(map[pages.PageID]bool)
	}
	if len(s.kswapdSpill) < ctx.Topo.NumTiers() {
		s.kswapdSpill = make([]int64, ctx.Topo.NumTiers())
	}
	spillPending := s.kswapdSpill
	for t := range spillPending {
		spillPending[t] = 0
	}
	batch := s.kswapdReqs[:0]
	for guard := 0; free < watermark && guard < 64; guard++ {
		victim := s.findColdVictimExcluding(ctx, s.kswapdChosen)
		if victim == pages.NoPage {
			break
		}
		bytes := ctx.AS.Get(victim).Bytes
		spill := s.spillTierPending(ctx, spillPending)
		if ctx.AS.FreeBytes(spill)-spillPending[spill] < bytes {
			break // the forced move would fail on capacity, as sequential would
		}
		batch = append(batch, migrate.Request{ID: victim, To: spill})
		s.kswapdChosen[victim] = true
		spillPending[spill] += bytes
		free += bytes
	}
	if len(batch) > 0 {
		res := ctx.Migrator.MoveBatchForced(batch)
		ctx.Obs.Counter("tpp_kswapd_demotions").Add(int64(res.Applied))
		for id := range s.kswapdChosen {
			delete(s.kswapdChosen, id)
		}
	}
	s.kswapdReqs = batch[:0]
}

// kswapdSeq is the per-page fallback used while a migration fault
// window is active.
func (s *System) kswapdSeq(ctx *sim.Context, watermark int64) {
	guard := 0
	for ctx.AS.FreeBytes(memsys.DefaultTier) < watermark && guard < 64 {
		guard++
		victim := s.findColdVictim(ctx)
		if victim == pages.NoPage {
			return
		}
		if err := ctx.Migrator.MoveForced(victim, s.spillTier(ctx)); err != nil {
			return
		}
		ctx.Obs.Counter("tpp_kswapd_demotions").Inc()
	}
}

// findColdVictim probes default-tier pages and returns the coldest of
// the probe set: the page with the largest (or missing) last
// time-to-fault. This is the inactive-list approximation — fault
// latency is the same signal the promotion path classifies on.
func (s *System) findColdVictim(ctx *sim.Context) pages.PageID {
	return s.findColdVictimExcluding(ctx, nil)
}

// findColdVictimExcluding is findColdVictim with pages already chosen
// for a pending batched demotion skipped; the skip sits with the tier
// check and does not count toward the probe-set quota, matching what
// the sequential loop sees after those pages have actually moved.
func (s *System) findColdVictimExcluding(ctx *sim.Context, exclude map[pages.PageID]bool) pages.PageID {
	n := ctx.AS.NumPages()
	best := pages.NoPage
	bestTTF := -1.0
	found := 0
	for probe := 0; probe < 64 && found < 16; probe++ {
		id := pages.PageID(ctx.RNG.Intn(n))
		p := ctx.AS.Get(id)
		if p.Tier != memsys.DefaultTier || exclude[id] {
			continue
		}
		found++
		ttf, ok := s.lastTTF[id]
		if !ok {
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

func (s *System) spillTier(ctx *sim.Context) memsys.TierID {
	for t := 1; t < ctx.Topo.NumTiers(); t++ {
		if ctx.AS.FreeBytes(memsys.TierID(t)) > 0 {
			return memsys.TierID(t)
		}
	}
	return 1
}

// spillTierPending is spillTier with bytes queued for a pending batched
// demotion already charged against each tier's free space.
func (s *System) spillTierPending(ctx *sim.Context, pending []int64) memsys.TierID {
	for t := 1; t < ctx.Topo.NumTiers(); t++ {
		if ctx.AS.FreeBytes(memsys.TierID(t))-pending[t] > 0 {
			return memsys.TierID(t)
		}
	}
	return 1
}

// TTFThreshold exposes the adaptive threshold for tests.
func (s *System) TTFThreshold() float64 { return s.ttfThresh }
