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

	"colloid/internal/core"
	"colloid/internal/heat"
	"colloid/internal/memsys"
	"colloid/internal/migrate"
	"colloid/internal/obs"
	"colloid/internal/pages"
	"colloid/internal/sim"
)

// Config selects vanilla MEMTIS or MEMTIS with Colloid.
type Config struct {
	// Colloid enables the Colloid integration; nil is vanilla MEMTIS.
	Colloid *core.Options
}

// MEMTIS's fixed parameters. Section 4.2 of the Colloid paper gives
// the 500 ms kmigrated quantum; the sampling rate, cooling cadence and
// free watermark are this model's settings for the mechanisms it names,
// and the split pacing and penalty are set so that splitting costs
// vanilla MEMTIS the roughly 10% at 0x contention that Section 2.2
// measures.
const (
	// baseSampleRatePerSec is the nominal PEBS rate; the dynamic rate
	// controller scales it in [0.5x, 2x] to bound tracking overhead.
	baseSampleRatePerSec = 20_000
	// quantumSec is the kmigrated quantum (500 ms).
	quantumSec = 0.5
	// coolEveryQuanta is the periodic cooling cadence: 16 kmigrated
	// quanta, 8 s.
	coolEveryQuanta = 16
	// splitsPerQuantum caps how many huge pages one quantum splits for
	// dynamic page size determination.
	splitsPerQuantum = 128
	// splitWeightCap stops splitting once this fraction of the access
	// weight rests on split pages.
	splitWeightCap = 0.6
	// splitPenalty is the fractional MLP loss when all accesses hit
	// split pages; the penalty applied is splitPenalty times the split
	// weight fraction.
	splitPenalty = 0.15
	// coalesceIntervalSec is how often the background VA scan manages
	// to coalesce one split parent: 120 s, the inefficiency the paper
	// calls out.
	coalesceIntervalSec = 120
	// freeWatermarkBytes is the default-tier free space kmigrated
	// maintains by demoting cold pages (1 GiB).
	freeWatermarkBytes = memsys.GiB
)

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
	// penalty below. It lists them in split order, perturbed only by
	// the swap-remove of a coalesced parent, for reproducibility;
	// isSplit is indexed by page ID and allocated by the first split.
	split   []pages.PageID
	isSplit []bool

	hotThreshold uint32
	sampleCarry  float64
	sampleScale  float64
	lastRunSec   float64
	lastCoalesce float64
	quanta       int
	started      bool
	splitting    bool

	// Histogram and hot-ID scratch for the tracker's sharded bulk
	// queries, the quantum's PEBS samples and the split selection's
	// candidates, reused across quanta.
	hist   []int64
	hotBuf []pages.PageID
	draws  []pages.PageID
	cand   []splitCand

	// The AppendHot filters, bound once in New: a func value made per
	// call would escape through the tracker and allocate. inSource
	// keeps pages whose tier in srcTiers is srcTier, which
	// alternateKmigratedColloid sets before its call; unsplit keeps
	// pages isSplit does not mark.
	inSource, unsplit func(id pages.PageID) bool
	srcTiers          []uint8
	srcTier           memsys.TierID

	// mSplits and mCoalesces count splits and coalesces, bound on the
	// first step.
	mSplits, mCoalesces *obs.Counter
}

// splitCand is a huge page offered for splitting, with its count.
type splitCand struct {
	id    pages.PageID
	count uint32
}

// New returns a MEMTIS instance.
func New(cfg Config) *System {
	s := &System{
		cfg:         cfg,
		sampleScale: 1,
		splitting:   true,
	}
	s.inSource, s.unsplit = s.inSourceTier, s.notSplit
	return s
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
func (s *System) SplitParents() int { return len(s.split) }

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
	if ctx.TimeSec-s.lastRunSec < quantumSec-1e-12 {
		return
	}
	s.lastRunSec = ctx.TimeSec
	s.quanta++

	// Periodic cooling (MEMTIS halves counts on a timer rather than on
	// a per-page threshold).
	if s.quanta%coolEveryQuanta == 0 {
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

// ensureTracker builds the heat tracker from the engine's spec and
// binds the split counters on the first step, and keeps the tracker's
// worker count in sync with the context.
func (s *System) ensureTracker(ctx *sim.Context) {
	if s.tracker == nil {
		s.tracker = ctx.Heat.NewTracker(maxCount)
		s.mSplits = ctx.Obs.Counter("memtis_splits")
		s.mCoalesces = ctx.Obs.Counter("memtis_coalesces")
	}
	s.tracker.SetWorkers(ctx.Workers)
}

// samplePEBS folds this engine quantum's samples into the tracker.
func (s *System) samplePEBS(ctx *sim.Context) {
	s.sampleCarry += baseSampleRatePerSec * s.sampleScale * ctx.QuantumSec
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
	bytes := ctx.AS.PageBytes()
	for _, id := range hot {
		if ctx.AS.Tier(id) == memsys.DefaultTier {
			continue
		}
		if ctx.AS.FreeBytes(memsys.DefaultTier) < bytes {
			if !s.demoteColdFromDefault(ctx, bytes) {
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
	limitBytes := int64(d.MigrationLimitBytesPerSec * quantumSec)
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
	s.srcTiers, s.srcTier = v.Tier, fromTier
	s.hotBuf = s.tracker.AppendHot(s.hotBuf[:0], s.hotThreshold, s.inSource, candCap)
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

// inSourceTier is alternateKmigratedColloid's AppendHot filter: it
// keeps pages in the walk's source tier.
func (s *System) inSourceTier(id pages.PageID) bool {
	return memsys.TierID(s.srcTiers[id]) == s.srcTier
}

// defaultKmigrated demotes cold pages from the default tier to keep
// the free watermark (and proactively pushes never-sampled pages out,
// which is why MEMTIS has the whole working set already in the
// alternate tier in the Figure 9 experiments).
func (s *System) defaultKmigrated(ctx *sim.Context) {
	for ctx.AS.FreeBytes(memsys.DefaultTier) < freeWatermarkBytes {
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
		if err := ctx.Migrator.MoveForced(victim, ctx.AS.SpillTier()); err != nil {
			return false
		}
		freed += ctx.AS.PageBytes()
	}
	return freed >= needBytes
}

func (s *System) findColdInDefault(ctx *sim.Context) pages.PageID {
	n := ctx.AS.NumPages()
	for probe := 0; probe < 128; probe++ {
		id := pages.PageID(ctx.RNG.Intn(n))
		if ctx.AS.Tier(id) != memsys.DefaultTier {
			continue
		}
		if s.tracker.Count(id) >= s.hotThreshold {
			continue
		}
		return id
	}
	return pages.NoPage
}

// splitHotHugePages splits up to splitsPerQuantum of the hottest huge
// pages into base pages. MEMTIS does this to gain sub-hugepage
// placement resolution; on workloads whose hot set is uniform within
// huge pages (GUPS) the split buys nothing and only costs TLB reach,
// and because it happens before steady state the damage is done early
// (Section 2.2).
func (s *System) splitHotHugePages(ctx *sim.Context) {
	if s.splitWeightFraction(ctx) >= splitWeightCap {
		s.splitting = false
		return
	}
	if ctx.AS.LiveView().PageBytes != pages.HugePageBytes {
		return // only huge pages split
	}
	if s.isSplit == nil {
		s.isSplit = make([]bool, ctx.AS.NumPages())
	}
	// Candidate assembly is the tracker's sharded AppendHot — pure reads
	// of the counts and the split set — capped at the serial scan's 4096
	// and truncated in shard index order.
	const splitCap = 4096
	s.hotBuf = s.tracker.AppendHot(s.hotBuf[:0], s.hotThreshold, s.unsplit, splitCap)
	best := s.cand[:0]
	for _, id := range s.hotBuf {
		best = append(best, splitCand{id, s.tracker.Count(id)})
	}
	s.cand = best
	// Partial selection: take the hottest few without a full sort.
	for i := 0; i < splitsPerQuantum && i < len(best); i++ {
		maxJ := i
		for j := i + 1; j < len(best); j++ {
			if best[j].count > best[maxJ].count {
				maxJ = j
			}
		}
		best[i], best[maxJ] = best[maxJ], best[i]
		s.split = append(s.split, best[i].id)
		s.isSplit[best[i].id] = true
		s.mSplits.Inc()
	}
}

// notSplit is splitHotHugePages' AppendHot filter: it keeps huge pages
// not split yet.
func (s *System) notSplit(id pages.PageID) bool { return !s.isSplit[id] }

// coalesceSlowly models MEMTIS's background coalescing: a virtual
// address space scan that merges at most one split parent per
// coalesceIntervalSec — far slower than the workloads reach steady
// state, so early splits effectively persist (Section 2.2).
func (s *System) coalesceSlowly(ctx *sim.Context) {
	if ctx.TimeSec-s.lastCoalesce < coalesceIntervalSec {
		return
	}
	s.lastCoalesce = ctx.TimeSec
	if n := len(s.split); n > 0 {
		s.isSplit[s.split[0]] = false
		s.split[0] = s.split[n-1]
		s.split = s.split[:n-1]
		s.mCoalesces.Inc()
	}
}

// splitWeightFraction returns the share of access weight resting on
// split regions.
func (s *System) splitWeightFraction(ctx *sim.Context) float64 {
	var frac float64
	for _, parent := range s.split {
		frac += ctx.AS.Weight(parent)
	}
	return frac
}

// applySplitPenalty degrades effective MLP in proportion to the access
// weight on split pages.
func (s *System) applySplitPenalty(ctx *sim.Context) {
	if ctx.SetInflightScale == nil {
		return
	}
	frac := s.splitWeightFraction(ctx)
	scale := 1 - splitPenalty*frac
	if scale < 0.5 {
		scale = 0.5
	}
	ctx.SetInflightScale(scale)
}
