// Package hemem reimplements HeMem (SOSP'21) as described in Section
// 4.1 of the Colloid paper: PEBS-based per-page frequency counts read
// by a polling thread, hot/cold page lists with threshold
// classification, count cooling at COOLING_THRESHOLD, and an
// asynchronous migration thread with a 10 ms quantum that packs as many
// hot pages as possible into the default tier.
//
// The Colloid integration (WithColloid) follows the paper: the
// frequency space [0, COOLING_THRESHOLD) is split into equal-width bins
// with a page list per bin, the CHA counters are sampled on the
// migration thread each quantum, and the Colloid placement algorithm
// replaces HeMem's packing policy.
package hemem

import (
	"errors"

	"colloid/internal/access"
	"colloid/internal/core"
	"colloid/internal/heat"
	"colloid/internal/memsys"
	"colloid/internal/migrate"
	"colloid/internal/pages"
	"colloid/internal/sim"
)

// Config tunes HeMem.
type Config struct {
	// SampleRatePerSec is the PEBS sampling rate the polling thread
	// sustains (default 50k samples/sec).
	SampleRatePerSec float64
	// CoolThreshold is COOLING_THRESHOLD: when any page's count reaches
	// it, all counts halve (default 16).
	CoolThreshold uint32
	// HotThreshold classifies a page as hot (default 4).
	HotThreshold uint32
	// QuantumSec is the migration thread quantum (default 10 ms).
	QuantumSec float64
	// NumBins is the Colloid extension's bin count (default 5).
	NumBins int
	// Colloid enables the Colloid placement algorithm with the given
	// options; nil runs vanilla HeMem.
	Colloid *core.Options
}

func (c Config) withDefaults() Config {
	if c.SampleRatePerSec == 0 {
		c.SampleRatePerSec = 50_000
	}
	if c.CoolThreshold == 0 {
		c.CoolThreshold = 16
	}
	if c.HotThreshold == 0 {
		c.HotThreshold = 4
	}
	if c.QuantumSec == 0 {
		c.QuantumSec = 0.01
	}
	if c.NumBins == 0 {
		c.NumBins = 5
	}
	return c
}

// System is one HeMem instance managing one address space.
type System struct {
	cfg Config
	// tracker is built lazily from Context.Heat on the first step, so
	// one sim.Config knob switches HeMem between exact and region
	// tracking without code changes here.
	tracker heat.Tracker
	colloid *core.Controller

	// hot holds pages classified hot; tier is looked up on use
	// (membership moves are cheaper than per-migration updates).
	hot *access.OrderedSet
	// hotAlt holds hot pages believed to reside outside the default
	// tier — the vanilla promotion worklist. Kept incrementally so the
	// steady-state migration pass is O(|hotAlt|), not O(|hot|), and
	// insertion-ordered so runs are reproducible.
	hotAlt *access.OrderedSet
	// bins[b] holds pages whose count falls in frequency bin b
	// (Colloid extension; maintained even for vanilla HeMem at
	// negligible cost so tests can inspect it).
	bins []*access.OrderedSet
	// binOf tracks each page's current bin to make moves O(1).
	binOf map[pages.PageID]int

	sampleCarry float64
	lastRunSec  float64
	started     bool
	cools       int
}

// New returns a HeMem instance.
func New(cfg Config) *System {
	cfg = cfg.withDefaults()
	s := &System{
		cfg:    cfg,
		hot:    access.NewOrderedSet(),
		hotAlt: access.NewOrderedSet(),
		bins:   make([]*access.OrderedSet, cfg.NumBins),
		binOf:  make(map[pages.PageID]int),
	}
	for i := range s.bins {
		s.bins[i] = access.NewOrderedSet()
	}
	return s
}

// Name identifies the system.
func (s *System) Name() string {
	if s.cfg.Colloid != nil {
		return "hemem+colloid"
	}
	return "hemem"
}

// Step implements sim.System.
func (s *System) Step(ctx *sim.Context) {
	if s.cfg.Colloid != nil && s.colloid == nil {
		opts := *s.cfg.Colloid
		if opts.StaticLimitBytesPerSec == 0 {
			opts.StaticLimitBytesPerSec = ctx.Migrator.StaticLimitBytesPerSec()
		}
		if opts.Obs == nil {
			opts.Obs = ctx.Obs
		}
		s.colloid = core.NewController(ctx.Topo.NumTiers(), opts)
	}
	// HeMem's per-quantum cost concentrates in the tracker's cooling
	// sweeps and the engine sampler's CDF rebuilds, both of which shard
	// internally; the hot/cold bins stay serial because they are
	// insertion-ordered sets whose order is part of the policy.
	s.ensureTracker(ctx)
	s.samplePEBS(ctx)
	if !s.started {
		s.started = true
		s.lastRunSec = ctx.TimeSec
		return
	}
	if ctx.TimeSec-s.lastRunSec < s.cfg.QuantumSec-1e-12 {
		return
	}
	s.lastRunSec = ctx.TimeSec
	if s.cfg.Colloid != nil {
		s.migrateColloid(ctx)
	} else {
		s.migrateVanilla(ctx)
	}
}

// ensureTracker builds the heat tracker from the engine's spec on the
// first step and keeps its worker count in sync with the context.
func (s *System) ensureTracker(ctx *sim.Context) {
	if s.tracker == nil {
		s.tracker = ctx.Heat.NewTracker(s.cfg.CoolThreshold)
	}
	s.tracker.SetWorkers(ctx.Workers)
}

// samplePEBS drains the sampling budget for this engine quantum and
// folds samples into the frequency tracker, maintaining hot-set and bin
// memberships incrementally.
func (s *System) samplePEBS(ctx *sim.Context) {
	s.sampleCarry += s.cfg.SampleRatePerSec * ctx.QuantumSec
	n := int(s.sampleCarry)
	s.sampleCarry -= float64(n)
	coolsBefore := s.tracker.Cools()
	for i := 0; i < n; i++ {
		id := ctx.Sampler.Sample()
		if id == pages.NoPage {
			continue
		}
		s.tracker.Touch(id)
		if s.tracker.Cools() != coolsBefore {
			// A cooling pass halved every count; rebuild memberships.
			s.rebuildLists(ctx)
			coolsBefore = s.tracker.Cools()
			continue
		}
		s.classify(ctx, id)
	}
}

// classify updates hot/bin membership for one page from its count.
func (s *System) classify(ctx *sim.Context, id pages.PageID) {
	c := s.tracker.Count(id)
	if c >= s.cfg.HotThreshold {
		s.hot.Add(id)
		if ctx.AS.Tier(id) != memsys.DefaultTier {
			s.hotAlt.Add(id)
		} else {
			s.hotAlt.Remove(id)
		}
	} else {
		s.hot.Remove(id)
		s.hotAlt.Remove(id)
	}
	b := s.binIndex(c)
	if prev, ok := s.binOf[id]; ok {
		if prev == b {
			return
		}
		s.bins[prev].Remove(id)
	}
	if c == 0 {
		delete(s.binOf, id)
		return
	}
	s.bins[b].Add(id)
	s.binOf[id] = b
}

func (s *System) binIndex(count uint32) int {
	b := int(count) * s.cfg.NumBins / int(s.cfg.CoolThreshold)
	if b >= s.cfg.NumBins {
		b = s.cfg.NumBins - 1
	}
	return b
}

// rebuildLists reconstructs hot/bin memberships after a cooling pass.
func (s *System) rebuildLists(ctx *sim.Context) {
	s.cools++
	ctx.Obs.Counter("hemem_cools").Inc()
	s.hot.Clear()
	s.hotAlt.Clear()
	for _, b := range s.bins {
		b.Clear()
	}
	for id := range s.binOf {
		delete(s.binOf, id)
	}
	s.tracker.ForEach(func(id pages.PageID, count uint32) {
		if count >= s.cfg.HotThreshold {
			s.hot.Add(id)
			if ctx.AS.Tier(id) != memsys.DefaultTier {
				s.hotAlt.Add(id)
			}
		}
		b := s.binIndex(count)
		s.bins[b].Add(id)
		s.binOf[id] = b
	})
}

// migrateVanilla is HeMem's placement: promote every hot page resident
// in an alternate tier into the default tier, demoting cold pages when
// the default tier is full, all under the migration rate limit.
//
// Promotions are accumulated and applied through MoveBatch, which
// amortizes the per-move budget/obs bookkeeping. In the fault-free
// path every move outcome is predictable from the budget and free-space
// mirrors tracked below, so batching is decision-identical to the
// sequential loop; under an active fault window outcomes are not
// predictable and we fall back to per-page moves.
func (s *System) migrateVanilla(ctx *sim.Context) {
	if ctx.Migrator.FaultActive() {
		s.migrateVanillaSeq(ctx)
		return
	}
	budgetLeft := ctx.Migrator.Budget()
	pendingFree := ctx.AS.FreeBytes(memsys.DefaultTier)
	var batch []migrate.Request
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		res := ctx.Migrator.MoveBatch(batch, nil)
		batch = batch[:0]
		return res.Err == nil
	}
	s.hotAlt.ForEach(func(id pages.PageID) access.Action {
		p := ctx.AS.Get(id)
		if p.Tier == memsys.DefaultTier {
			return access.Drop
		}
		if pendingFree < p.Bytes {
			// Demotions must happen now, after the promotions queued so
			// far, to preserve the sequential budget-consumption order.
			if !flush() {
				return access.Stop
			}
			budgetLeft = ctx.Migrator.Budget()
			if !s.ensureDefaultFree(ctx, p.Bytes) {
				return access.Stop // out of cold victims or budget
			}
			budgetLeft = ctx.Migrator.Budget()
			pendingFree = ctx.AS.FreeBytes(memsys.DefaultTier)
		}
		if budgetLeft < p.Bytes {
			// The rejected request rides along so MoveBatch reproduces
			// the throttle counter and trace event of the sequential
			// loop's failing Move.
			batch = append(batch, migrate.Request{ID: id, To: memsys.DefaultTier})
			flush()
			return access.Stop
		}
		batch = append(batch, migrate.Request{ID: id, To: memsys.DefaultTier})
		budgetLeft -= p.Bytes
		pendingFree -= p.Bytes
		return access.Drop
	})
	flush()
}

// migrateVanillaSeq is the per-page fallback used while a migration
// fault window is active: injected failures make move outcomes
// unpredictable, so each must be applied before deciding the next.
func (s *System) migrateVanillaSeq(ctx *sim.Context) {
	s.hotAlt.ForEach(func(id pages.PageID) access.Action {
		p := ctx.AS.Get(id)
		if p.Tier == memsys.DefaultTier {
			return access.Drop
		}
		if !s.ensureDefaultFree(ctx, p.Bytes) {
			return access.Stop // out of cold victims or budget
		}
		err := ctx.Migrator.Move(id, memsys.DefaultTier)
		if errors.Is(err, migrate.ErrLimit) {
			return access.Stop
		}
		if err == nil {
			return access.Drop
		}
		return access.Keep
	})
}

// ensureDefaultFree demotes cold pages out of the default tier until
// the requested bytes fit. Victims are found by random probing, an
// O(1) stand-in for HeMem's cold list (most pages are cold, so a few
// probes suffice). Returns false if no victim could be found or the
// migration budget ran out.
func (s *System) ensureDefaultFree(ctx *sim.Context, bytes int64) bool {
	for ctx.AS.FreeBytes(memsys.DefaultTier) < bytes {
		victim := s.findColdVictim(ctx)
		if victim == pages.NoPage {
			return false
		}
		if err := ctx.Migrator.Move(victim, s.spillTier(ctx)); err != nil {
			return false
		}
	}
	return true
}

// spillTier is where demotions land: the first alternate tier with
// free space.
func (s *System) spillTier(ctx *sim.Context) memsys.TierID {
	for t := 1; t < ctx.Topo.NumTiers(); t++ {
		if ctx.AS.FreeBytes(memsys.TierID(t)) > 0 {
			return memsys.TierID(t)
		}
	}
	return 1
}

// findColdVictim probes random pages for a cold page in the
// default tier.
func (s *System) findColdVictim(ctx *sim.Context) pages.PageID {
	n := ctx.AS.NumPages()
	for probe := 0; probe < 64; probe++ {
		id := pages.PageID(ctx.RNG.Intn(n))
		p := ctx.AS.Get(id)
		if p.Tier != memsys.DefaultTier {
			continue
		}
		if s.hot.Contains(id) {
			continue
		}
		return id
	}
	return pages.NoPage
}

// migrateColloid runs Algorithm 1 using the binned frequency lists for
// page finding (Section 4.1).
func (s *System) migrateColloid(ctx *sim.Context) {
	d, ok := s.colloid.Observe(ctx.CHA)
	if !ok || d.Mode == core.Hold {
		return
	}
	limitBytes := int64(d.MigrationLimitBytesPerSec * s.cfg.QuantumSec)
	if b := ctx.Migrator.Budget(); b < limitBytes {
		limitBytes = b
	}
	var fromTier memsys.TierID
	var toTier memsys.TierID
	if d.Mode == core.Promote {
		fromTier, toTier = 1, memsys.DefaultTier
	} else {
		fromTier, toTier = memsys.DefaultTier, s.spillTier(ctx)
	}
	cands := s.candidates(ctx, fromTier)
	picked := core.PickPages(cands, d.DeltaP, limitBytes, 4096)
	if ctx.Migrator.FaultActive() {
		for _, c := range picked {
			if toTier == memsys.DefaultTier {
				if !s.ensureDefaultFree(ctx, c.Bytes) {
					return
				}
			}
			err := ctx.Migrator.Move(c.ID, toTier)
			if errors.Is(err, migrate.ErrLimit) {
				return
			}
		}
		return
	}
	if toTier != memsys.DefaultTier {
		// Demotions need no free-space carving; apply the whole set in
		// one batch (it stops at the budget the same way the loop did).
		reqs := make([]migrate.Request, len(picked))
		for i, c := range picked {
			reqs[i] = migrate.Request{ID: c.ID, To: toTier}
		}
		ctx.Migrator.MoveBatch(reqs, nil)
		return
	}
	// Promotions: accumulate while the mirrored free-space and budget
	// say the moves will land, flushing before any needed demotion so
	// the budget-consumption order matches the sequential loop.
	budgetLeft := ctx.Migrator.Budget()
	pendingFree := ctx.AS.FreeBytes(memsys.DefaultTier)
	var batch []migrate.Request
	for _, c := range picked {
		if pendingFree < c.Bytes {
			if len(batch) > 0 {
				if res := ctx.Migrator.MoveBatch(batch, nil); res.Err != nil {
					return
				}
				batch = batch[:0]
			}
			if !s.ensureDefaultFree(ctx, c.Bytes) {
				return
			}
			budgetLeft = ctx.Migrator.Budget()
			pendingFree = ctx.AS.FreeBytes(memsys.DefaultTier)
		}
		if budgetLeft < c.Bytes {
			// Ride the rejected request along so the batch reproduces
			// the sequential loop's throttle accounting, then stop.
			batch = append(batch, migrate.Request{ID: c.ID, To: toTier})
			ctx.Migrator.MoveBatch(batch, nil)
			return
		}
		batch = append(batch, migrate.Request{ID: c.ID, To: toTier})
		budgetLeft -= c.Bytes
		pendingFree -= c.Bytes
	}
	if len(batch) > 0 {
		ctx.Migrator.MoveBatch(batch, nil)
	}
}

// candidates lists pages in fromTier ordered hottest bin first, with
// their estimated access probabilities. Collection is capped: the
// migration limit bounds how many pages one quantum can move anyway,
// so scanning the entire bin structure would be wasted work.
func (s *System) candidates(ctx *sim.Context, fromTier memsys.TierID) []core.Candidate {
	const maxCollect, maxScan = 4096, 32768
	var out []core.Candidate
	scanned := 0
	for b := s.cfg.NumBins - 1; b >= 0; b-- {
		s.bins[b].ForEach(func(id pages.PageID) access.Action {
			scanned++
			if scanned > maxScan || len(out) >= maxCollect {
				return access.Stop
			}
			p := ctx.AS.Get(id)
			if p.Tier != fromTier {
				return access.Keep
			}
			out = append(out, core.Candidate{
				ID:          id,
				Probability: s.tracker.Probability(id),
				Bytes:       p.Bytes,
			})
			return access.Keep
		})
		if scanned > maxScan || len(out) >= maxCollect {
			break
		}
	}
	return out
}

// Stats exposes internals for tests and traces.
type Stats struct {
	TrackedPages int
	HotPages     int
	Cools        int
	// TrackerName and TrackerBytes describe the configured heat tracker
	// (zero values before the first step builds it).
	TrackerName  string
	TrackerBytes int64
}

// Stats returns a snapshot of tracker state.
func (s *System) Stats() Stats {
	st := Stats{
		HotPages: s.hot.Len(),
		Cools:    s.cools,
	}
	if s.tracker != nil {
		st.TrackedPages = s.tracker.Tracked()
		st.TrackerName = s.tracker.Name()
		st.TrackerBytes = s.tracker.MemoryFootprintBytes()
	}
	return st
}
