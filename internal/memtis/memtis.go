// Package memtis reimplements MEMTIS (SOSP'23) per Section 4.2 of the
// Colloid paper. MEMTIS resembles HeMem with four differences: (1) a
// dynamic PEBS sampling rate bounding CPU overhead, (2) a dynamic hot
// threshold derived from the measured access histogram (the hot set is
// sized to the default tier's capacity), (3) separate per-tier
// kmigrated threads on a 500 ms quantum, and (4) dynamic page size
// determination — huge pages are split into base pages by kmigrated and
// coalesced back by a background thread that scans the virtual address
// space, which is slow enough that pages split early effectively never
// coalesce within an experiment (the inefficiency the paper measured as
// MEMTIS's 10% gap from best-case at 0x contention).
//
// The performance cost of running hot data on split 4 KB pages (TLB
// pressure and deeper page walks) is modeled as a reduction of the
// application's effective memory-level parallelism proportional to the
// access weight resting on split pages.
//
// The Colloid integration replaces the placement policy on the
// alternate tier's kmigrated thread; the default tier's kmigrated
// (capacity-driven cold demotion) is unchanged, as in the paper.
package memtis

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

// Config tunes MEMTIS.
type Config struct {
	// BaseSampleRatePerSec is the nominal PEBS rate (default 20k/s);
	// the dynamic rate controller scales it in [0.5x, 2x] to bound
	// tracking overhead.
	BaseSampleRatePerSec float64
	// QuantumSec is the kmigrated quantum (default 500 ms).
	QuantumSec float64
	// CoolEveryQuanta is the periodic cooling cadence (default 16
	// kmigrated quanta = 8 s).
	CoolEveryQuanta int
	// SplitHugePages enables dynamic page size determination (default
	// on; set SplitsPerQuantum to 0 to disable instead, since the
	// zero value of a bool cannot distinguish "unset").
	SplitsPerQuantum int
	// SplitWeightCap stops splitting once this fraction of the access
	// weight rests on split pages (default 0.6).
	SplitWeightCap float64
	// SplitPenalty is the fractional MLP loss when all accesses hit
	// split pages (default 0.15; the penalty applied is
	// SplitPenalty * splitWeightFraction).
	SplitPenalty float64
	// CoalesceIntervalSec is how often the background VA scan manages
	// to coalesce one split parent (default 120 s — the inefficiency
	// the paper calls out).
	CoalesceIntervalSec float64
	// FreeWatermarkBytes is the default-tier free space kmigrated
	// maintains by demoting cold pages (default 1 GiB).
	FreeWatermarkBytes int64
	// Colloid enables the Colloid integration; nil is vanilla MEMTIS.
	Colloid *core.Options
}

func (c Config) withDefaults() Config {
	if c.BaseSampleRatePerSec == 0 {
		c.BaseSampleRatePerSec = 20_000
	}
	if c.QuantumSec == 0 {
		c.QuantumSec = 0.5
	}
	if c.CoolEveryQuanta == 0 {
		c.CoolEveryQuanta = 16
	}
	if c.SplitsPerQuantum == 0 {
		c.SplitsPerQuantum = 128
	}
	if c.SplitWeightCap == 0 {
		c.SplitWeightCap = 0.6
	}
	if c.SplitPenalty == 0 {
		c.SplitPenalty = 0.15
	}
	if c.CoalesceIntervalSec == 0 {
		c.CoalesceIntervalSec = 120
	}
	if c.FreeWatermarkBytes == 0 {
		c.FreeWatermarkBytes = memsys.GiB
	}
	return c
}

// maxCount caps histogram bucket indices.
const maxCount = 256

// System is one MEMTIS instance.
type System struct {
	cfg Config
	// tracker is built lazily from Context.Heat on the first step, so
	// one sim.Config knob switches MEMTIS between exact and region
	// tracking without code changes here.
	tracker heat.Tracker
	colloid *core.Controller

	// split holds huge pages whose 512 base pages are individually
	// managed after a split. The simulator keeps the 2 MB region as one
	// placement unit (the paper's GUPS hot set is uniform within huge
	// pages, so sub-page placement resolution changes nothing) and
	// models the cost — TLB reach lost on hot data — via the MLP
	// penalty below. Insertion-ordered for reproducibility.
	split *access.OrderedSet

	hotThreshold uint32
	sampleCarry  float64
	sampleScale  float64
	lastRunSec   float64
	lastCoalesce float64
	quanta       int
	started      bool
	splitting    bool

	// Histogram and hot-ID scratch for the tracker's sharded bulk
	// queries and the quantum's PEBS samples, reused across quanta.
	hist   []int64
	hotBuf []pages.PageID
	draws  []pages.PageID
}

// New returns a MEMTIS instance.
func New(cfg Config) *System {
	cfg = cfg.withDefaults()
	return &System{
		cfg:         cfg,
		split:       access.NewOrderedSet(),
		sampleScale: 1,
		splitting:   cfg.SplitsPerQuantum > 0,
	}
}

// Name identifies the system.
func (s *System) Name() string {
	if s.cfg.Colloid != nil {
		return "memtis+colloid"
	}
	return "memtis"
}

// HotThreshold exposes the dynamic threshold for tests.
func (s *System) HotThreshold() uint32 { return s.hotThreshold }

// SplitParents returns how many huge pages are currently split.
func (s *System) SplitParents() int { return s.split.Len() }

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
	s.ensureTracker(ctx)
	s.samplePEBS(ctx)
	if !s.started {
		s.started = true
		s.lastRunSec = ctx.TimeSec
		s.lastCoalesce = ctx.TimeSec
		return
	}
	if ctx.TimeSec-s.lastRunSec < s.cfg.QuantumSec-1e-12 {
		return
	}
	s.lastRunSec = ctx.TimeSec
	s.quanta++

	// Periodic cooling (MEMTIS halves counts on a timer rather than on
	// a per-page threshold).
	if s.quanta%s.cfg.CoolEveryQuanta == 0 {
		s.tracker.Cool()
	}
	s.updateDynamicRate()
	s.hotThreshold = s.computeHotThreshold(ctx)

	if s.splitting {
		s.splitHotHugePages(ctx)
	}
	s.coalesceSlowly(ctx)

	if s.cfg.Colloid != nil {
		s.alternateKmigratedColloid(ctx)
	} else {
		s.alternateKmigratedVanilla(ctx)
	}
	s.defaultKmigrated(ctx)
	s.applySplitPenalty(ctx)
}

// ensureTracker builds the heat tracker from the engine's spec on the
// first step and keeps its worker count in sync with the context.
func (s *System) ensureTracker(ctx *sim.Context) {
	if s.tracker == nil {
		s.tracker = ctx.Heat.NewTracker(maxCount)
	}
	s.tracker.SetWorkers(ctx.Workers)
}

// samplePEBS folds this engine quantum's samples into the tracker.
func (s *System) samplePEBS(ctx *sim.Context) {
	s.sampleCarry += s.cfg.BaseSampleRatePerSec * s.sampleScale * ctx.QuantumSec
	n := int(s.sampleCarry)
	s.sampleCarry -= float64(n)
	s.draws = ctx.Sampler.SampleN(s.draws[:0], n)
	for _, id := range s.draws {
		s.tracker.Touch(id)
	}
}

// updateDynamicRate models MEMTIS's overhead-bounding sampling-rate
// controller: more tracked pages means more per-sample work, so the
// rate backs off; a sparse tracker lets it rise.
func (s *System) updateDynamicRate() {
	const targetTracked = 40_000
	tracked := s.tracker.Tracked()
	switch {
	case tracked > targetTracked && s.sampleScale > 0.5:
		s.sampleScale *= 0.9
	case tracked < targetTracked/2 && s.sampleScale < 2:
		s.sampleScale *= 1.1
	}
}

// computeHotThreshold sizes the hot set to the default tier: the
// smallest count c such that pages with count >= c fit in the default
// tier's capacity (MEMTIS derives this from its access histogram). The
// tracker builds the bytes-at-count histogram with its own sharded
// ordered-reduce sweep, so the result is exactly the serial scan's at
// any worker count.
func (s *System) computeHotThreshold(ctx *sim.Context) uint32 {
	if s.hist == nil {
		s.hist = make([]int64, maxCount+1)
	}
	s.tracker.BytesByCount(s.hist, ctx.AS.LiveView())
	capacity := ctx.Topo.Capacity(memsys.DefaultTier)
	var cum int64
	for c := maxCount; c >= 1; c-- {
		cum += s.hist[c]
		if cum > capacity {
			return uint32(c + 1)
		}
	}
	return 1
}

// alternateKmigratedVanilla promotes hot pages from alternate tiers
// into the default tier (packing policy). Candidate assembly — the
// count-threshold filter over the whole tracker — shards by ID range;
// the moves (which mutate placement and draw victim probes from the
// shared RNG) then apply serially in ID order, exactly the order the
// single-threaded scan used. Collection reads only tracker counts, so
// deferring the placement checks to the apply loop changes nothing.
func (s *System) alternateKmigratedVanilla(ctx *sim.Context) {
	hot := s.collectHotIDs(ctx)
	for _, id := range hot {
		p := ctx.AS.Get(id)
		if p.Tier == memsys.DefaultTier {
			continue
		}
		if ctx.AS.FreeBytes(memsys.DefaultTier) < p.Bytes {
			if !s.demoteColdFromDefault(ctx, p.Bytes) {
				return
			}
		}
		_ = ctx.Migrator.Move(id, memsys.DefaultTier)
	}
}

// collectHotIDs returns, in ascending ID order, every tracked page with
// count >= hotThreshold; the tracker shards the scan internally with an
// ordered concatenation, identical at any worker count.
func (s *System) collectHotIDs(ctx *sim.Context) []pages.PageID {
	s.hotBuf = s.tracker.AppendHot(s.hotBuf[:0], s.hotThreshold, nil, 0)
	return s.hotBuf
}

// alternateKmigratedColloid runs Algorithm 1 on the alternate tier's
// kmigrated thread, scanning the hot list for pages to realize deltaP.
func (s *System) alternateKmigratedColloid(ctx *sim.Context) {
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
		fromTier, toTier = memsys.DefaultTier, ctx.AS.SpillTier()
	}
	// Scan the hot list for candidates in the source tier (Section 4.2:
	// "we scan the corresponding tier's hot list and pick pages until
	// either deltaP is satisfied or the migration limit is hit"). The
	// hot-list scan is pure reads (counts, placement), so the tracker's
	// AppendHot shards it by ID range; per-shard buffers concatenate in
	// shard index order and truncate to the serial scan's 8192 cap,
	// yielding the same first-8192-by-ID hot pages at any worker count.
	// They are offered in that order, and each page the picker takes
	// moves before the next is offered. The snapshot fixes the
	// candidates, so the cold pages demoteColdFromDefault demotes on the
	// way are never offered; the walk ends at the first move that finds
	// no victim or no budget.
	const candCap = 8192
	v := ctx.AS.LiveView()
	p := core.NewPicker(d.DeltaP, limitBytes, v.PageBytes, 0)
	if p.Done() {
		return
	}
	s.hotBuf = s.tracker.AppendHot(s.hotBuf[:0], s.hotThreshold, func(id pages.PageID) bool {
		return v.Tier[id] == fromTier
	}, candCap)
	for _, id := range s.hotBuf {
		if p.Offer(s.tracker.Probability(id)) {
			if toTier == memsys.DefaultTier && ctx.AS.FreeBytes(memsys.DefaultTier) < v.PageBytes {
				if !s.demoteColdFromDefault(ctx, v.PageBytes) {
					return
				}
			}
			if err := ctx.Migrator.Move(id, toTier); errors.Is(err, migrate.ErrLimit) {
				return
			}
		}
		if p.Done() {
			return
		}
	}
}

// defaultKmigrated demotes cold pages from the default tier to keep
// the free watermark (and proactively pushes never-sampled pages out,
// which is why MEMTIS has the whole working set already in the
// alternate tier in the Figure 9 experiments).
func (s *System) defaultKmigrated(ctx *sim.Context) {
	for ctx.AS.FreeBytes(memsys.DefaultTier) < s.cfg.FreeWatermarkBytes {
		if !s.demoteColdFromDefault(ctx, pages.HugePageBytes) {
			return
		}
	}
}

// demoteColdFromDefault finds a default-tier page below the hot
// threshold by random probing and demotes it. Returns false if none
// was found or migration failed.
func (s *System) demoteColdFromDefault(ctx *sim.Context, needBytes int64) bool {
	freed := int64(0)
	guard := 0
	for freed < needBytes && guard < 32 {
		guard++
		victim := s.findColdInDefault(ctx)
		if victim == pages.NoPage {
			return false
		}
		b := ctx.AS.Get(victim).Bytes
		if err := ctx.Migrator.MoveForced(victim, ctx.AS.SpillTier()); err != nil {
			return false
		}
		freed += b
	}
	return freed >= needBytes
}

func (s *System) findColdInDefault(ctx *sim.Context) pages.PageID {
	n := ctx.AS.NumPages()
	for probe := 0; probe < 128; probe++ {
		id := pages.PageID(ctx.RNG.Intn(n))
		p := ctx.AS.Get(id)
		if p.Tier != memsys.DefaultTier {
			continue
		}
		if s.tracker.Count(id) >= s.hotThreshold {
			continue
		}
		return id
	}
	return pages.NoPage
}

// splitHotHugePages splits up to SplitsPerQuantum of the hottest huge
// pages into base pages. MEMTIS does this to gain sub-hugepage
// placement resolution; on workloads whose hot set is uniform within
// huge pages (GUPS) the split buys nothing and only costs TLB reach,
// and because it happens before steady state the damage is done early
// (Section 2.2).
func (s *System) splitHotHugePages(ctx *sim.Context) {
	if s.splitWeightFraction(ctx) >= s.cfg.SplitWeightCap {
		s.splitting = false
		return
	}
	if ctx.AS.LiveView().PageBytes != pages.HugePageBytes {
		return // only huge pages split
	}
	// Candidate assembly is the tracker's sharded AppendHot — pure reads
	// of the counts and the split set — capped at the serial scan's 4096
	// and truncated in shard index order.
	type cand struct {
		id    pages.PageID
		count uint32
	}
	const splitCap = 4096
	s.hotBuf = s.tracker.AppendHot(s.hotBuf[:0], s.hotThreshold, func(id pages.PageID) bool {
		return !s.split.Contains(id)
	}, splitCap)
	best := make([]cand, len(s.hotBuf))
	for i, id := range s.hotBuf {
		best[i] = cand{id, s.tracker.Count(id)}
	}
	// Partial selection: take the hottest few without a full sort.
	for i := 0; i < s.cfg.SplitsPerQuantum && i < len(best); i++ {
		maxJ := i
		for j := i + 1; j < len(best); j++ {
			if best[j].count > best[maxJ].count {
				maxJ = j
			}
		}
		best[i], best[maxJ] = best[maxJ], best[i]
		s.split.Add(best[i].id)
		ctx.Obs.Counter("memtis_splits").Inc()
	}
}

// coalesceSlowly models MEMTIS's background coalescing: a virtual
// address space scan that merges at most one split parent per
// CoalesceIntervalSec — far slower than the workloads reach steady
// state, so early splits effectively persist (Section 2.2).
func (s *System) coalesceSlowly(ctx *sim.Context) {
	if ctx.TimeSec-s.lastCoalesce < s.cfg.CoalesceIntervalSec {
		return
	}
	s.lastCoalesce = ctx.TimeSec
	if s.split.Len() > 0 {
		s.split.Remove(s.split.At(0))
		ctx.Obs.Counter("memtis_coalesces").Inc()
	}
}

// splitWeightFraction returns the share of access weight resting on
// split regions.
func (s *System) splitWeightFraction(ctx *sim.Context) float64 {
	var frac float64
	s.split.ForEach(func(parent pages.PageID) access.Action {
		frac += ctx.AS.Weight(parent)
		return access.Keep
	})
	return frac
}

// applySplitPenalty degrades effective MLP in proportion to the access
// weight on split pages.
func (s *System) applySplitPenalty(ctx *sim.Context) {
	if ctx.SetInflightScale == nil {
		return
	}
	frac := s.splitWeightFraction(ctx)
	scale := 1 - s.cfg.SplitPenalty*frac
	if scale < 0.5 {
		scale = 0.5
	}
	ctx.SetInflightScale(scale)
}
