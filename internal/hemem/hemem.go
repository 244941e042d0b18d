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
	return c
}

// numBins is the Colloid extension's bin count (Section 4.1).
const numBins = 5

// pageState is one page's list membership: 12 bytes in place of a
// position array per list. altPos and binPos are one plus the page's
// index in hotAlt and in bins[bin-1], 0 when absent; bin is one plus
// the page's bin, 0 for none. A hot page has a count of at least
// HotThreshold; only the flag is kept, since nothing reads the hot
// pages in order. demoted marks a victim of the running Colloid walk
// and sits in what would be padding.
type pageState struct {
	altPos, binPos int32
	bin            uint8
	hot            bool
	demoted        bool
}

// System is one HeMem instance managing one address space.
type System struct {
	cfg Config
	// tracker is built lazily from Context.Heat on the first step, so
	// one sim.Config knob switches HeMem between exact and region
	// tracking without code changes here.
	tracker heat.Tracker
	colloid *core.Controller

	// state[id] is page id's hot flag, bin and list positions. One
	// record per page keeps a sample's classification to one cache line
	// of HeMem state.
	state []pageState
	// nHot counts the records flagged hot.
	nHot int
	// hotAlt holds hot pages believed to reside outside the default
	// tier — the vanilla promotion worklist. Kept incrementally so the
	// steady-state migration pass is O(|hotAlt|), not O(hot pages), and
	// insertion-ordered (appends, swap-removes) so runs are
	// reproducible.
	hotAlt []pages.PageID
	// bins[b] holds pages whose count falls in frequency bin b
	// (Colloid extension; maintained even for vanilla HeMem at
	// negligible cost so tests can inspect it), in the same order.
	bins [numBins][]pages.PageID
	// victims lists the pages the running Colloid walk demoted, so
	// their marks clear when it ends; draws holds the quantum's PEBS
	// samples. Both are reused across quanta.
	victims []pages.PageID
	draws   []pages.PageID

	sampleCarry float64
	lastRunSec  float64
	started     bool
	cools       int
}

// New returns a HeMem instance.
func New(cfg Config) *System {
	return &System{cfg: cfg.withDefaults()}
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
	// internally; the hot/cold lists stay serial because they are
	// insertion-ordered and their order is part of the policy.
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

// ensureTracker builds the heat tracker from the engine's spec, and the
// page records over the space's pages, on the first step and keeps the
// tracker's worker count in sync with the context.
func (s *System) ensureTracker(ctx *sim.Context) {
	if s.tracker == nil {
		s.tracker = ctx.Heat.NewTracker(s.cfg.CoolThreshold)
		s.state = make([]pageState, ctx.AS.NumPages())
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
	s.draws = ctx.Sampler.SampleN(s.draws[:0], n)
	for _, id := range s.draws {
		c := s.tracker.Touch(id)
		if s.tracker.Cools() != coolsBefore {
			// A cooling pass halved every count; rebuild memberships.
			s.rebuildLists(ctx)
			coolsBefore = s.tracker.Cools()
			continue
		}
		s.classify(ctx, id, c)
	}
}

// classify updates hot/bin membership for one page from its count c,
// the value its Touch returned.
func (s *System) classify(ctx *sim.Context, id pages.PageID, c uint32) {
	st := &s.state[id]
	if hot := c >= s.cfg.HotThreshold; hot != st.hot {
		st.hot = hot
		if hot {
			s.nHot++
		} else {
			s.nHot--
		}
	}
	if st.hot && ctx.AS.Tier(id) != memsys.DefaultTier {
		s.addAlt(id)
	} else {
		s.removeAlt(id)
	}
	b := s.binIndex(c)
	if st.bin != 0 {
		if int(st.bin)-1 == b {
			return
		}
		s.removeBin(id)
	}
	if c != 0 {
		s.addBin(id, b)
	}
}

// addAlt appends id to hotAlt unless it is there.
func (s *System) addAlt(id pages.PageID) {
	st := &s.state[id]
	if st.altPos == 0 {
		s.hotAlt = append(s.hotAlt, id)
		st.altPos = int32(len(s.hotAlt))
	}
}

// removeAlt swap-removes id from hotAlt if it is there.
func (s *System) removeAlt(id pages.PageID) {
	st := &s.state[id]
	if st.altPos == 0 {
		return
	}
	i, last := st.altPos-1, len(s.hotAlt)-1
	moved := s.hotAlt[last]
	s.hotAlt[i] = moved
	s.state[moved].altPos = i + 1
	s.hotAlt = s.hotAlt[:last]
	st.altPos = 0
}

// addBin appends id, which is in no bin, to bin b.
func (s *System) addBin(id pages.PageID, b int) {
	s.bins[b] = append(s.bins[b], id)
	st := &s.state[id]
	st.bin = uint8(b) + 1
	st.binPos = int32(len(s.bins[b]))
}

// removeBin swap-removes id from its bin.
func (s *System) removeBin(id pages.PageID) {
	st := &s.state[id]
	bin := &s.bins[st.bin-1]
	i, last := st.binPos-1, len(*bin)-1
	moved := (*bin)[last]
	(*bin)[i] = moved
	s.state[moved].binPos = i + 1
	*bin = (*bin)[:last]
	st.bin, st.binPos = 0, 0
}

func (s *System) binIndex(count uint32) int {
	b := int(count) * numBins / int(s.cfg.CoolThreshold)
	if b >= numBins {
		b = numBins - 1
	}
	return b
}

// rebuildLists reconstructs hot/bin memberships after a cooling pass.
func (s *System) rebuildLists(ctx *sim.Context) {
	s.cools++
	ctx.Obs.Counter("hemem_cools").Inc()
	clear(s.state)
	s.nHot = 0
	s.hotAlt = s.hotAlt[:0]
	for b := range s.bins {
		s.bins[b] = s.bins[b][:0]
	}
	s.tracker.ForEach(func(id pages.PageID, count uint32) {
		if count >= s.cfg.HotThreshold {
			s.state[id].hot = true
			s.nHot++
			if ctx.AS.Tier(id) != memsys.DefaultTier {
				s.addAlt(id)
			}
		}
		s.addBin(id, s.binIndex(count))
	})
}

// migrateVanilla is HeMem's placement: promote every hot page resident
// in an alternate tier into the default tier, demoting cold pages when
// the default tier is full, all under the migration rate limit.
func (s *System) migrateVanilla(ctx *sim.Context) {
	// A removal swap-fills slot i, so the loop revisits it.
	for i := 0; i < len(s.hotAlt); {
		id := s.hotAlt[i]
		p := ctx.AS.Get(id)
		if p.Tier == memsys.DefaultTier {
			s.removeAlt(id)
			continue
		}
		if !s.ensureDefaultFree(ctx, p.Bytes, false) {
			return // out of cold victims or budget
		}
		err := ctx.Migrator.Move(id, memsys.DefaultTier)
		if errors.Is(err, migrate.ErrLimit) {
			return
		}
		if err == nil {
			s.removeAlt(id)
			continue
		}
		i++
	}
}

// ensureDefaultFree demotes cold pages out of the default tier until
// the requested bytes fit. Victims are found by random probing, an
// O(1) stand-in for HeMem's cold list (most pages are cold, so a few
// probes suffice). With mark set, as a Colloid walk asks, each victim
// is marked demoted and listed in victims until the walk ends. Returns
// false if no victim could be found or the migration budget ran out.
func (s *System) ensureDefaultFree(ctx *sim.Context, bytes int64, mark bool) bool {
	for ctx.AS.FreeBytes(memsys.DefaultTier) < bytes {
		victim := s.findColdVictim(ctx)
		if victim == pages.NoPage {
			return false
		}
		if err := ctx.Migrator.Move(victim, ctx.AS.SpillTier()); err != nil {
			return false
		}
		if mark {
			s.state[victim].demoted = true
			s.victims = append(s.victims, victim)
		}
	}
	return true
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
		if s.state[id].hot {
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
	s.walk(ctx, d)
}

// walk offers the pages in the decision's source tier, hottest bin
// first, with their estimated access probabilities, and moves each
// page the picker takes before it offers the next. It returns at the
// first move that finds no victim or no budget, so nothing is offered
// after it. The walk is capped: the migration limit bounds how many
// pages one quantum can move anyway, so walking the entire bin
// structure would be wasted work.
//
// The pages offered are the ones in fromTier when the walk began.
// ensureDefaultFree demotes random cold pages mid-walk, into fromTier
// on two tiers, and a victim from a bin the walk has not reached yet
// would then read as a candidate; the walk skips the pages marked
// demoted and clears the marks when it ends.
func (s *System) walk(ctx *sim.Context, d core.Decision) {
	const maxScan = 32768
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
	v := ctx.AS.LiveView()
	p := core.NewPicker(d.DeltaP, limitBytes, v.PageBytes, 4096)
	if p.Done() {
		return
	}
	defer s.clearVictims()
	scanned := 0
	for b := numBins - 1; b >= 0; b-- {
		for _, id := range s.bins[b] {
			scanned++
			if scanned > maxScan {
				return
			}
			if v.Tier[id] != fromTier || s.state[id].demoted {
				continue
			}
			if p.Offer(s.tracker.Probability(id)) {
				if toTier == memsys.DefaultTier && !s.ensureDefaultFree(ctx, v.PageBytes, true) {
					return
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
}

// clearVictims unmarks the pages the walk demoted.
func (s *System) clearVictims() {
	for _, id := range s.victims {
		s.state[id].demoted = false
	}
	s.victims = s.victims[:0]
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
		HotPages: s.nHot,
		Cools:    s.cools,
	}
	if s.tracker != nil {
		st.TrackedPages = s.tracker.Tracked()
		st.TrackerName = s.tracker.Name()
		st.TrackerBytes = s.tracker.MemoryFootprintBytes()
	}
	return st
}
