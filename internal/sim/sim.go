// Package sim is the quantum-stepped simulation engine. Each quantum it
// (1) reads the current page placement as per-tier request shares,
// (2) solves the closed-loop equilibrium of application, antagonist and
// migration traffic against the tier latency models, (3) feeds the CHA
// counters, and (4) invokes the tiering system under test, which may
// sample accesses and request page migrations that take effect in
// subsequent quanta.
//
// The engine is collection-shaped: it steps N tenants — each with its
// own address space, traffic profile, tiering system, migrator and
// sampler — against one shared physical topology. New is the one
// constructor. Tier capacity is always arbitrated through a
// memsys.Ledger and proactive migration bandwidth through a
// migrate.SharedBudget. Named tenants (WithTenants) fork
// their RNG streams from their names and report under "tenant.<name>."
// namespaces in the shared obs registry. Without them the engine holds
// one unnamed tenant — the paper's single workload — with a one-row
// ledger and a shared budget equal to its own cap; its streams split
// from the root and its metrics go to the unscoped registry.
//
// The tiering systems observe the machine only through the sanctioned
// interfaces — CHA counter snapshots and access-tracking samples — never
// the solver's ground truth, mirroring what kernel/userspace tiering
// code can see on real hardware.
package sim

import (
	"errors"
	"fmt"
	"sort"

	"colloid/internal/access"
	"colloid/internal/cha"
	"colloid/internal/heat"
	"colloid/internal/memsys"
	"colloid/internal/migrate"
	"colloid/internal/obs"
	"colloid/internal/pages"
	"colloid/internal/scenario"
	"colloid/internal/stats"
	"colloid/internal/workloads"
)

// Context is the per-quantum view handed to a tiering system. It is
// valid only during System.Step: the engine keeps one Context per
// tenant and refills every field of it each quantum, so a system must
// not retain it, or any pointer into it, after Step returns.
type Context struct {
	// QuantumIndex counts quanta from 0.
	QuantumIndex int
	// TimeSec is the simulation time at the end of this quantum.
	TimeSec float64
	// QuantumSec is the quantum duration.
	QuantumSec float64
	// Tenant names the tenant this system serves ("" for the unnamed
	// tenant).
	Tenant string
	// AS is the application address space (placement + page sizes).
	// Systems read placement and weights only via their trackers; the
	// true Weight field is the PMU's sampling ground truth.
	AS *pages.AddressSpace
	// Topo is the tenant's capacity view of the shared physical
	// topology: latencies and bandwidths are machine-wide, capacities
	// are the tenant's slice (the whole tier for a lone tenant).
	Topo *memsys.Topology
	// CHA is a cumulative counter snapshot taken after this quantum.
	// The counters are machine-wide (one socket's CHAs), so every
	// tenant sees the same interference-bearing snapshot.
	CHA cha.Snapshot
	// Migrator executes migrations under rate limits.
	Migrator *migrate.Engine
	// Sampler draws access samples (the PEBS interface). A system
	// draws its quantum's samples with one SampleN into a buffer it
	// reuses, as a PEBS polling thread drains its sample buffer in bulk.
	Sampler *access.Sampler
	// AppRequestRate is the application's demand-read rate this
	// quantum (what a PEBS-derived rate estimate would integrate to).
	AppRequestRate float64
	// SetInflightScale adjusts the effective per-core memory-level
	// parallelism of the application (1 = unimpaired). MEMTIS uses it
	// to model the TLB/walk overhead of running parts of the working
	// set on split 4 KB pages.
	SetInflightScale func(scale float64)
	// RNG is the system's private randomness stream.
	RNG *stats.RNG
	// Heat selects the access-tracking fidelity (Config.Heat, or this
	// tenant's TenantSpec.Heat override). Systems that
	// keep a frequency tracker build it with Heat.NewTracker instead of
	// constructing access.FreqTracker directly, so one config knob moves
	// every system between exact and region tracking.
	Heat heat.Spec
	// Workers is the sharded-pipeline fan-out from Config.Workers.
	// Systems pass it to shard.Run when assembling migration candidates;
	// results must be identical at any worker count (fixed shard count,
	// ordered reduce, per-shard RNG streams).
	Workers int
	// Obs records the system's decisions; nil when instrumentation is
	// off (all obs handles are nil-safe, so systems never check). A
	// named tenant gets its scoped view of the shared registry; the
	// unnamed tenant gets the registry itself.
	Obs *obs.Registry
}

// System is a tiering system under test: HeMem, TPP, MEMTIS, each with
// or without Colloid, or a static-placement oracle arm.
type System interface {
	// Name identifies the system in results.
	Name() string
	// Step runs one engine quantum's worth of the system's logic. The
	// system decides internally whether its own (longer) quantum has
	// elapsed.
	Step(ctx *Context)
}

// Workload installs a workload's access weights into an address space,
// drawing any randomness from rng. *workloads.GUPS and
// *workloads.FromWeights satisfy it.
type Workload interface {
	Install(as *pages.AddressSpace, rng *stats.RNG) error
}

// Config assembles a simulation.
type Config struct {
	// Topology is the tier set (required).
	Topology *memsys.Topology
	// WorkingSetBytes sizes the unnamed tenant's address space
	// (required without tenants; must be unset when tenants are given).
	WorkingSetBytes int64
	// PageBytes is the placement granularity (default 2 MB).
	PageBytes int64
	// Profile is the unnamed tenant's traffic profile (required without
	// tenants; must be unset when tenants are given).
	Profile workloads.Profile
	// Workload, when non-nil, installs the unnamed tenant's access
	// weights at the end of New (must be unset when tenants are given;
	// see TenantSpec.Workload).
	Workload Workload
	// Antagonist seeds the contention generator on the paper's 0x-3x
	// intensity scale (0 = none); mid-run steps are expressed as
	// scenario.AntagonistStep events.
	Antagonist workloads.Intensity
	// Heat selects the access-tracking fidelity every system's
	// frequency tracker is built with: the zero value is exact per-page
	// counting (the historical behavior); Kind heat.Region tracks at
	// region granularity with optional forecasting, trading per-page
	// fidelity for O(pages/granularity) tracker cost.
	Heat heat.Spec
	// Workers is the fan-out for the sharded per-quantum pipeline
	// (sampler-CDF rebuilds, tracker cooling, candidate assembly). Default 1 = serial. Any worker count produces
	// bit-identical results; raising it only changes wall-clock time.
	Workers int
	// QuantumSec is the engine step (default 10 ms, HeMem's migration
	// quantum; systems with longer quanta skip engine steps).
	QuantumSec float64
	// Seed makes runs reproducible.
	Seed uint64
	// CHANoiseStdDev perturbs counter increments (default 0.01).
	CHANoiseStdDev float64
	// MigrationLimitBytesPerSec caps proactive migration traffic
	// (default 2.5 GB/s; 0 keeps the default, use NoMigrationLimit for
	// unlimited). This is the machine-wide shared limit all tenants
	// drain together; per-tenant caps live on TenantSpec, and the
	// unnamed tenant's own cap is this limit.
	MigrationLimitBytesPerSec float64
	// SampleEverySec is the trace recording interval (default 1 s).
	SampleEverySec float64
	// Obs receives metrics and trace events from the engine, the
	// migration/CHA/sampler plumbing, and the system under test. Nil
	// disables instrumentation at zero cost.
	Obs *obs.Registry
}

// NoMigrationLimit disables the migration rate limit.
const NoMigrationLimit = -1

// NoCHANoise requests noiseless CHA counters. A plain 0 keeps the
// default noise (0.01), mirroring NoMigrationLimit.
const NoCHANoise = -1

// DefaultMigrationLimit is the static migration rate limit
// (bytes/sec) used when Config leaves it zero: 2.5 GB/s, sized like the
// systems' defaults so a 24 GB hot set converges in ~10 s.
const DefaultMigrationLimit = 2.5e9

func (c Config) withDefaults() Config {
	if c.PageBytes == 0 {
		c.PageBytes = pages.HugePageBytes
	}
	if c.QuantumSec == 0 {
		c.QuantumSec = 0.01
	}
	if c.CHANoiseStdDev == 0 {
		c.CHANoiseStdDev = 0.01
	} else if c.CHANoiseStdDev == NoCHANoise {
		c.CHANoiseStdDev = 0
	}
	if c.MigrationLimitBytesPerSec == 0 {
		c.MigrationLimitBytesPerSec = DefaultMigrationLimit
	} else if c.MigrationLimitBytesPerSec == NoMigrationLimit {
		c.MigrationLimitBytesPerSec = 0
	}
	if c.SampleEverySec == 0 {
		c.SampleEverySec = 1
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	return c
}

// validateAntagonist checks the typed intensity.
func (c Config) validateAntagonist() []error {
	var errs []error
	if c.Antagonist < 0 {
		errs = append(errs, fmt.Errorf("sim: negative antagonist intensity %d", c.Antagonist))
	}
	return errs
}

// validateShared checks the fields that apply with or without named
// tenants.
func (c Config) validateShared() []error {
	var errs []error
	if c.Topology == nil {
		errs = append(errs, fmt.Errorf("sim: topology required"))
	}
	if c.PageBytes < 0 {
		errs = append(errs, fmt.Errorf("sim: negative page size %d", c.PageBytes))
	}
	if c.QuantumSec < 0 {
		errs = append(errs, fmt.Errorf("sim: negative quantum %v s", c.QuantumSec))
	}
	if c.SampleEverySec < 0 {
		errs = append(errs, fmt.Errorf("sim: negative sample interval %v s", c.SampleEverySec))
	}
	errs = append(errs, c.validateAntagonist()...)
	if err := c.Heat.Validate(); err != nil {
		errs = append(errs, err)
	}
	if c.Workers < 0 {
		errs = append(errs, fmt.Errorf("sim: negative worker count %d", c.Workers))
	}
	if c.MigrationLimitBytesPerSec < 0 && c.MigrationLimitBytesPerSec != NoMigrationLimit {
		errs = append(errs, fmt.Errorf("sim: negative migration limit %v (use sim.NoMigrationLimit for unlimited)",
			c.MigrationLimitBytesPerSec))
	}
	if c.CHANoiseStdDev < 0 && c.CHANoiseStdDev != NoCHANoise {
		errs = append(errs, fmt.Errorf("sim: negative CHA noise %v (use sim.NoCHANoise for noiseless counters)",
			c.CHANoiseStdDev))
	}
	return errs
}

// Validate reports every problem with a configuration for the unnamed
// tenant, joined into a single error, so a bad invocation fails with
// the full list rather than one complaint per retry. It checks the raw
// config — sentinels (NoMigrationLimit, NoCHANoise) and
// zeros-meaning-default are fine.
func (c Config) Validate() error {
	errs := c.validateShared()
	if c.WorkingSetBytes <= 0 {
		errs = append(errs, fmt.Errorf("sim: working set required (WorkingSetBytes = %d)", c.WorkingSetBytes))
	} else if c.Topology != nil && c.WorkingSetBytes > c.Topology.TotalCapacity() {
		errs = append(errs, fmt.Errorf("sim: working set %d bytes exceeds topology capacity %d bytes",
			c.WorkingSetBytes, c.Topology.TotalCapacity()))
	}
	if c.PageBytes > 0 && c.WorkingSetBytes > 0 && c.PageBytes > c.WorkingSetBytes {
		errs = append(errs, fmt.Errorf("sim: page size %d bytes exceeds working set %d bytes",
			c.PageBytes, c.WorkingSetBytes))
	}
	return errors.Join(errs...)
}

// Sample is one trace point.
type Sample struct {
	// TimeSec is the simulation time.
	TimeSec float64
	// OpsPerSec is application throughput in operations.
	OpsPerSec float64
	// LatencyNs[t] is the loaded latency of tier t.
	LatencyNs []float64
	// AppShare[t] is the fraction of app requests served by tier t.
	AppShare []float64
	// AppBytesPerSec[t] is the app's bandwidth on tier t (the MBM view
	// of Figure 2(b)/6(a)).
	AppBytesPerSec []float64
	// TotalBytesPerSec[t] is all traffic on tier t.
	TotalBytesPerSec []float64
	// MigrationBytesPerSec is the migration rate over the last quantum.
	MigrationBytesPerSec float64
}

type event struct {
	at float64
	fn func(*Engine)
}

// TenantSpec declares one named tenant (see WithTenants). Tenants are
// ordered by Name internally, so the set of specs — not the order they
// were registered in — determines every result bit.
type TenantSpec struct {
	// Name identifies the tenant (required, unique). It labels the
	// tenant's obs namespace ("tenant.<name>.") and seeds its RNG
	// streams via stats.RNG.Fork, so results depend on the name, never
	// on registration order.
	Name string
	// WorkingSetBytes sizes the tenant's address space (required).
	WorkingSetBytes int64
	// PageBytes is the tenant's placement granularity (0 inherits
	// Config.PageBytes).
	PageBytes int64
	// Profile is the tenant's traffic profile (required).
	Profile workloads.Profile
	// Workload, when non-nil, installs the tenant's access weights at
	// the end of New, once every tenant is placed, drawing from the
	// tenant's name-forked workload stream.
	Workload Workload
	// System is the tenant's tiering system (nil = static placement).
	// Each tenant needs its own instance; systems hold per-run state.
	System System
	// Scenario is an optional per-tenant disturbance timeline. Events
	// that mutate the shared topology (TierDegrade, TierRestore) are
	// rejected — machine-wide faults belong on the cluster-level
	// WithScenario. AntagonistStep and CHADropout act machine-wide even
	// when scheduled by one tenant (there is one antagonist and one set
	// of CHAs); ProfileSwitch, WorkloadShift and MigrationStall act on
	// this tenant alone.
	Scenario *scenario.Scenario
	// CapacityQuota, when non-nil, caps the tenant's per-tier capacity
	// (isolated policy). Nil shares the physical tiers through the
	// cluster ledger (shared policy). Either way physical capacity is
	// never oversubscribed; see memsys.Topology.TenantView.
	CapacityQuota []int64
	// MigrationLimitBytesPerSec caps this tenant's proactive migration
	// rate. 0 leaves the tenant individually uncapped — the machine-wide
	// Config.MigrationLimitBytesPerSec still applies through the shared
	// budget all tenants drain.
	MigrationLimitBytesPerSec float64
	// Heat, when non-nil, overrides Config.Heat for this tenant alone:
	// its system sees the override through Context.Heat, so QoS classes
	// can buy tracking fidelity (premium exact, best-effort coarse
	// regions) on one cluster. Nil inherits Config.Heat.
	Heat *heat.Spec
}

func (s TenantSpec) validate() []error {
	var errs []error
	if s.Name == "" {
		errs = append(errs, fmt.Errorf("sim: tenant name required"))
	}
	if s.WorkingSetBytes <= 0 {
		errs = append(errs, fmt.Errorf("sim: tenant %q: working set required (WorkingSetBytes = %d)", s.Name, s.WorkingSetBytes))
	}
	if s.PageBytes < 0 {
		errs = append(errs, fmt.Errorf("sim: tenant %q: negative page size %d", s.Name, s.PageBytes))
	} else if s.PageBytes > 0 && s.WorkingSetBytes > 0 && s.PageBytes > s.WorkingSetBytes {
		errs = append(errs, fmt.Errorf("sim: tenant %q: page size %d bytes exceeds working set %d bytes",
			s.Name, s.PageBytes, s.WorkingSetBytes))
	}
	if s.MigrationLimitBytesPerSec < 0 {
		errs = append(errs, fmt.Errorf("sim: tenant %q: negative migration limit %v", s.Name, s.MigrationLimitBytesPerSec))
	}
	for t, q := range s.CapacityQuota {
		if q < 0 {
			errs = append(errs, fmt.Errorf("sim: tenant %q: negative capacity quota %d on tier %d", s.Name, q, t))
		}
	}
	if s.Heat != nil {
		if err := s.Heat.Validate(); err != nil {
			errs = append(errs, fmt.Errorf("sim: tenant %q: %w", s.Name, err))
		}
	}
	return errs
}

// tenantState is one tenant's slice of the engine: address space,
// capacity view, migrator, sampler, system, profile, RNG streams,
// scoped obs and trace.
type tenantState struct {
	name     string
	as       *pages.AddressSpace
	topo     *memsys.Topology // capacity view over the engine's ledger
	migrator *migrate.Engine
	sampler  *access.Sampler
	system   System
	profile  workloads.Profile
	heat     heat.Spec // resolved fidelity: Config.Heat or the spec's override

	rngWorkload *stats.RNG
	rngSystem   *stats.RNG

	obs           *obs.Registry
	inflightScale float64
	setScale      func(scale float64) // ctx.SetInflightScale, built once
	ctx           Context             // refilled and handed to system each quantum
	samples       []Sample
	shareBuf      []float64
	migBytes      int64 // this quantum's migration bytes, read before BeginQuantum
}

// Engine drives one simulation: N tenants stepping against one shared
// physical topology (one unnamed tenant when built without tenants).
type Engine struct {
	cfg      Config
	topo     *memsys.Topology // physical topology (shared by all tenants)
	counters *cha.Counters
	tenants  []*tenantState
	ledger   *memsys.Ledger
	shared   *migrate.SharedBudget

	antagonist workloads.Antagonist

	timeSec     float64
	quantum     int
	events      []event
	lastSampled float64
	// eq is every quantum's equilibrium: Step solves into it, and the
	// solver keeps it without iterating when the quantum's inputs equal
	// the previous one's.
	eq memsys.Equilibrium
	// migLoadBuf/srcBuf/usageBuf are per-quantum scratch: Step is the
	// only writer and every consumer copies, so one allocation serves
	// the whole run.
	migLoadBuf []memsys.Load
	srcBuf     []memsys.Source
	usageBuf   []int64

	mQuanta *obs.Counter
	mReuses *obs.Counter
	mCapped *obs.Counter
	hIters  *obs.Histogram
}

// Option configures an Engine at construction. Options replace the old
// mutate-after-construct setters: an engine built from a Config plus
// options is fully assembled when New returns, so every arm of an
// experiment constructs identically and reproducibly.
type Option func(*buildOptions)

type buildOptions struct {
	system   System
	scenario *scenario.Scenario
	tenants  []TenantSpec
}

// WithSystem installs the unnamed tenant's tiering system (nil for a
// static-placement arm is the default and needs no option). It
// conflicts with named tenants: each TenantSpec carries its own System.
func WithSystem(s System) Option {
	return func(o *buildOptions) { o.system = s }
}

// WithScenario installs a disturbance timeline: the scenario is
// validated against the topology and compiled onto the event queue
// before the first quantum. If the scenario degrades tiers, the
// topology is cloned first so a Topology value shared across arms is
// never mutated. A scenario-driven run is bit-identical to a run that
// hand-schedules the equivalent ScheduleAt calls.
//
// Per-tenant events (ProfileSwitch, WorkloadShift, MigrationStall) act
// on the unnamed tenant. With named tenants this is the machine-wide
// timeline: those events belong on TenantSpec.Scenario and are
// rejected here.
func WithScenario(sc *scenario.Scenario) Option {
	return func(o *buildOptions) { o.scenario = sc }
}

// WithTenants adds named tenants; an engine with named tenants has no
// unnamed one. See TenantSpec; it may be repeated. Registration order
// never matters: tenants are ordered by name.
func WithTenants(specs ...TenantSpec) Option {
	return func(o *buildOptions) { o.tenants = append(o.tenants, specs...) }
}

// New builds an engine from the config plus options, every tenant
// through one loop: in name order, each tenant gets a capacity view over
// the engine's ledger, an address space placed first-fit against that
// view (default tier first, so earlier tenants shape where later ones
// land), a migrator draining the engine's shared budget, a sampler and
// RNG streams. Last, once every tenant is placed and every scenario is
// scheduled, each tenant's Workload installs its weights in name order,
// drawing only from that tenant's workload stream; a failed install is
// a construction error.
//
// Without WithTenants the engine holds one unnamed tenant built from
// Config.WorkingSetBytes, Config.Profile, Config.Workload, the
// WithSystem system and Config's migration limit as its own cap.
// Its one-row ledger always reports physical capacity and its two
// migration buckets accrue and drain together, so it behaves as the
// paper's single workload. It differs from a named tenant in three
// ways: its streams split from the root instead of forking from a
// name, it reports into the unscoped obs registry, and WithScenario's
// tenant-targeted events act on it.
func New(cfg Config, opts ...Option) (*Engine, error) {
	var bo buildOptions
	for _, opt := range opts {
		opt(&bo)
	}
	unnamed := len(bo.tenants) == 0
	var specs []TenantSpec
	if unnamed {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		specs = []TenantSpec{{WorkingSetBytes: cfg.WorkingSetBytes, Profile: cfg.Profile, Workload: cfg.Workload, System: bo.system}}
	} else {
		var err error
		if specs, err = namedSpecs(cfg, &bo); err != nil {
			return nil, err
		}
	}
	cfg = cfg.withDefaults()
	if unnamed {
		specs[0].MigrationLimitBytesPerSec = cfg.MigrationLimitBytesPerSec
	}
	if bo.scenario != nil {
		if err := bo.scenario.Validate(cfg.Topology.NumTiers()); err != nil {
			return nil, err
		}
		if !unnamed {
			if err := clusterScenarioOK(bo.scenario); err != nil {
				return nil, err
			}
		}
		if bo.scenario.MutatesTopology() {
			// Clone before the tenant views and address spaces are built
			// so they share the clone's tiers: experiment arms routinely
			// share one Topology value read-only.
			cfg.Topology = cfg.Topology.Clone()
		}
	}
	numTiers := cfg.Topology.NumTiers()
	root := stats.NewRNG(cfg.Seed)
	chaRNG := root.Split(1)
	// Named tenants fork from one tenant root by name; the unnamed
	// tenant splits straight from the root (Split consumes a parent
	// draw, so no tenant root is drawn for it).
	tenantRoot := root
	if !unnamed {
		tenantRoot = root.Split(2)
	}
	e := &Engine{
		cfg:        cfg,
		topo:       cfg.Topology,
		counters:   cha.NewCounters(numTiers, cfg.CHANoiseStdDev, chaRNG),
		ledger:     memsys.NewLedger(len(specs), numTiers),
		shared:     migrate.NewSharedBudget(cfg.MigrationLimitBytesPerSec),
		antagonist: workloads.AntagonistForIntensity(cfg.Antagonist),
	}
	e.counters.SetObs(cfg.Obs)
	e.mQuanta = cfg.Obs.Counter("sim_quanta")
	e.mReuses = cfg.Obs.Counter("sim_solver_reuses")
	e.mCapped = cfg.Obs.Counter("sim_solver_capped")
	e.hIters = cfg.Obs.Histogram("sim_solver_iters")
	for i, spec := range specs {
		pageBytes := spec.PageBytes
		if pageBytes == 0 {
			pageBytes = cfg.PageBytes
		}
		view, err := cfg.Topology.TenantView(e.ledger, i, spec.CapacityQuota)
		if err != nil {
			return nil, spec.wrap(err)
		}
		as, err := pages.NewAddressSpace(view, spec.WorkingSetBytes, pageBytes)
		if err != nil {
			return nil, spec.wrap(err)
		}
		// A named tenant's streams depend on (seed, name) alone — never
		// on how many tenants came before it.
		base, scoped := tenantRoot, cfg.Obs
		if spec.Name != "" {
			base = tenantRoot.Fork("tenant:" + spec.Name)
			scoped = cfg.Obs.Scoped("tenant." + spec.Name + ".")
		}
		tenantHeat := cfg.Heat
		if spec.Heat != nil {
			tenantHeat = *spec.Heat
		}
		ts := &tenantState{
			name:          spec.Name,
			as:            as,
			topo:          view,
			migrator:      migrate.NewEngine(as, numTiers, spec.MigrationLimitBytesPerSec),
			system:        spec.System,
			profile:       spec.Profile,
			heat:          tenantHeat,
			rngWorkload:   base.Split(2),
			rngSystem:     base.Split(3),
			obs:           scoped,
			inflightScale: 1,
		}
		ts.setScale = func(scale float64) {
			if scale <= 0 || scale > 1 {
				return
			}
			ts.inflightScale = scale
		}
		ts.sampler = access.NewSampler(as, base.Split(4))
		ts.sampler.SetWorkers(cfg.Workers)
		ts.migrator.SetShared(e.shared)
		ts.migrator.SetObs(scoped)
		ts.sampler.SetObs(scoped)
		e.tenants = append(e.tenants, ts)
		e.syncLedger(i)
		if spec.Scenario != nil {
			if err := spec.Scenario.Validate(numTiers); err != nil {
				return nil, spec.wrap(err)
			}
			if spec.Scenario.MutatesTopology() {
				return nil, fmt.Errorf("sim: tenant %q: scenario mutates the shared topology; machine-wide faults belong on the cluster-level WithScenario", spec.Name)
			}
			e.installScenario(ts, spec.Scenario)
		}
	}
	if bo.scenario != nil {
		var target *tenantState
		if unnamed {
			target = e.tenants[0]
		}
		e.installScenario(target, bo.scenario)
	}
	for i, spec := range specs {
		if spec.Workload == nil {
			continue
		}
		if err := spec.Workload.Install(e.tenants[i].as, e.tenants[i].rngWorkload); err != nil {
			return nil, spec.wrap(err)
		}
	}
	return e, nil
}

// clusterScenarioOK rejects the cluster-level scenario event types
// that target a single tenant and so are ambiguous machine-wide.
func clusterScenarioOK(sc *scenario.Scenario) error {
	for _, ev := range sc.Sorted() {
		switch ev.(type) {
		case scenario.ProfileSwitch, scenario.WorkloadShift, scenario.MigrationStall:
			return fmt.Errorf("sim: cluster-level scenario event %T targets a single tenant; put it on that TenantSpec.Scenario", ev)
		}
	}
	return nil
}

// namedSpecs validates a build with named tenants and returns their
// specs in name order: the spec set, not registration order, determines
// every downstream bit (ledger rows, solver source order, event
// scheduling, step order).
func namedSpecs(cfg Config, bo *buildOptions) ([]TenantSpec, error) {
	var errs []error
	if bo.system != nil {
		errs = append(errs, fmt.Errorf("sim: WithSystem conflicts with tenants (set System per TenantSpec)"))
	}
	if cfg.WorkingSetBytes != 0 {
		errs = append(errs, fmt.Errorf("sim: Config.WorkingSetBytes must be unset with tenants (size each TenantSpec)"))
	}
	if cfg.Profile != (workloads.Profile{}) {
		errs = append(errs, fmt.Errorf("sim: Config.Profile must be unset with tenants (set it per TenantSpec)"))
	}
	if cfg.Workload != nil {
		errs = append(errs, fmt.Errorf("sim: Config.Workload must be unset with tenants (set it per TenantSpec)"))
	}
	errs = append(errs, cfg.validateShared()...)
	specs := append([]TenantSpec(nil), bo.tenants...)
	sort.SliceStable(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	seen := make(map[string]bool, len(specs))
	var totalWSS int64
	for _, s := range specs {
		errs = append(errs, s.validate()...)
		if s.Name != "" && seen[s.Name] {
			errs = append(errs, fmt.Errorf("sim: duplicate tenant name %q", s.Name))
		}
		seen[s.Name] = true
		totalWSS += s.WorkingSetBytes
	}
	if cfg.Topology != nil && totalWSS > cfg.Topology.TotalCapacity() {
		errs = append(errs, fmt.Errorf("sim: tenants' working sets total %d bytes, exceeding topology capacity %d bytes",
			totalWSS, cfg.Topology.TotalCapacity()))
	}
	return specs, errors.Join(errs...)
}

// wrap prefixes a construction error with the tenant's name. The
// unnamed tenant's errors pass through as engine errors.
func (s TenantSpec) wrap(err error) error {
	if s.Name == "" {
		return err
	}
	return fmt.Errorf("sim: tenant %q: %w", s.Name, err)
}

// syncLedger refreshes tenant i's ledger row from its address space.
func (e *Engine) syncLedger(i int) {
	n := e.topo.NumTiers()
	if cap(e.usageBuf) < n {
		e.usageBuf = make([]int64, n)
	}
	buf := e.usageBuf[:n]
	as := e.tenants[i].as
	for t := 0; t < n; t++ {
		buf[t] = as.TierBytes(memsys.TierID(t))
	}
	e.ledger.SetUsage(i, buf)
}

// SyncTenantUsage refreshes every tenant's ledger row. The engine keeps
// the ledger current across its own stepping; callers that move pages
// outside Step (cluster-level watermark demotion between quanta) call
// this afterwards.
func (e *Engine) SyncTenantUsage() {
	for i := range e.tenants {
		e.syncLedger(i)
	}
}

// installScenario compiles a scenario onto the event queue. Events are
// inserted in firing order (stable for equal times), so the queue's
// equal-time FIFO preserves the scenario's declared order; the trailing
// edge of a windowed event (dropout end) schedules alongside. ts is the
// tenant the timeline belongs to; nil is the cluster-level timeline,
// whose tenant-targeted event types were rejected at validation.
func (e *Engine) installScenario(ts *tenantState, sc *scenario.Scenario) {
	for _, ev := range sc.Sorted() {
		switch ev := ev.(type) {
		case scenario.AntagonistStep:
			cores := workloads.AntagonistForIntensity(ev.Intensity).Cores
			e.ScheduleAt(ev.AtSec, func(en *Engine) {
				en.antagonist.Cores = cores
			})
		case scenario.ProfileSwitch:
			e.ScheduleAt(ev.AtSec, func(*Engine) {
				ts.profile = ev.Profile
			})
		case scenario.WorkloadShift:
			e.ScheduleAt(ev.AtSec, func(*Engine) {
				ev.Shift(ts.as, ts.rngWorkload)
			})
		case scenario.TierDegrade:
			e.ScheduleAt(ev.AtSec, func(en *Engine) {
				if err := en.topo.Degrade(ev.Tier, ev.LatencyFactor, ev.BandwidthFactor); err != nil {
					panic(err) // impossible: scenario validated at install
				}
				en.cfg.Obs.Emit(obs.EvTierDegrade,
					obs.F("tier", float64(ev.Tier)),
					obs.F("lat_factor", ev.LatencyFactor),
					obs.F("bw_factor", ev.BandwidthFactor))
			})
		case scenario.TierRestore:
			e.ScheduleAt(ev.AtSec, func(en *Engine) {
				if err := en.topo.Restore(ev.Tier); err != nil {
					panic(err) // impossible: scenario validated at install
				}
				en.cfg.Obs.Emit(obs.EvTierRestore, obs.F("tier", float64(ev.Tier)))
			})
		case scenario.CHADropout:
			until := ev.AtSec + ev.ForSec
			e.ScheduleAt(ev.AtSec, func(en *Engine) {
				en.counters.SetDropout(true)
				en.cfg.Obs.Emit(obs.EvCHADropout, obs.F("until_sec", until))
			})
			e.ScheduleAt(until, func(en *Engine) {
				en.counters.SetDropout(false)
				en.cfg.Obs.Emit(obs.EvCHARestore,
					obs.F("dropped_quanta", float64(en.counters.DroppedQuanta())))
			})
		case scenario.MigrationStall:
			e.ScheduleAt(ev.AtSec, func(*Engine) {
				ts.migrator.InjectFault(ev.Fault, ev.Quanta)
			})
		default:
			// Validate accepted it, so this is a new event type the
			// compiler doesn't know yet — fail loudly, not silently.
			panic(fmt.Sprintf("sim: scenario event %T not supported", ev))
		}
	}
}

// AS returns tenant 0's address space, as Tenant(0).AS() does. It and
// WorkloadRNG remain because perfbench installs its workloads through
// them; once perfbench sets Config.Workload, both go.
func (e *Engine) AS() *pages.AddressSpace { return e.tenants[0].as }

// Topology returns the shared physical tier set.
func (e *Engine) Topology() *memsys.Topology { return e.topo }

// WorkloadRNG returns tenant 0's workload stream, as
// Tenant(0).WorkloadRNG() does; see AS for why it remains.
func (e *Engine) WorkloadRNG() *stats.RNG { return e.tenants[0].rngWorkload }

// AntagonistCores returns the contention generator's current core
// count — the configured value until an AntagonistStep event replaces
// it.
func (e *Engine) AntagonistCores() int { return e.antagonist.Cores }

// NumTenants returns the tenant count (1 for the unnamed tenant).
func (e *Engine) NumTenants() int { return len(e.tenants) }

// Ledger returns the capacity ledger: one row per tenant, in name
// order.
func (e *Engine) Ledger() *memsys.Ledger { return e.ledger }

// TenantHandle is a read-mostly view of one tenant's slice of the
// engine, indexed in name order.
type TenantHandle struct {
	e *Engine
	i int
}

// Tenant returns the i-th tenant (name order).
func (e *Engine) Tenant(i int) TenantHandle { return TenantHandle{e: e, i: i} }

// Name returns the tenant's name ("" for the unnamed tenant).
func (h TenantHandle) Name() string { return h.e.tenants[h.i].name }

// AS returns the tenant's address space.
func (h TenantHandle) AS() *pages.AddressSpace { return h.e.tenants[h.i].as }

// Topology returns the tenant's capacity view of the shared topology.
func (h TenantHandle) Topology() *memsys.Topology { return h.e.tenants[h.i].topo }

// Migrator returns the tenant's migration engine.
func (h TenantHandle) Migrator() *migrate.Engine { return h.e.tenants[h.i].migrator }

// WorkloadRNG returns the tenant's workload stream (forked from the
// tenant name, so draws are registration-order independent). New's
// workload install draws from it first; WorkloadShift events and the
// oracle's manual placement draw from it afterwards.
func (h TenantHandle) WorkloadRNG() *stats.RNG { return h.e.tenants[h.i].rngWorkload }

// Profile returns the tenant's active traffic profile — the configured
// one until a ProfileSwitch event replaces it.
func (h TenantHandle) Profile() workloads.Profile { return h.e.tenants[h.i].profile }

// Obs returns the tenant's scoped obs view (the unscoped registry for
// the unnamed tenant; nil when instrumentation is off).
func (h TenantHandle) Obs() *obs.Registry { return h.e.tenants[h.i].obs }

// Samples returns the tenant's recorded trace.
func (h TenantHandle) Samples() []Sample { return h.e.tenants[h.i].samples }

// SteadyState averages the tenant's trace over the final lastSeconds.
// The window is clamped to the elapsed simulation time: asking for more
// than has run averages the whole trace, warm-up included — callers
// that care about settling must run long enough first. A sample lying
// exactly on the window boundary (TimeSec == timeSec - lastSeconds) is
// included. A non-positive window is a programmer error and panics:
// before the clamp was added it silently shifted the cutoff and
// averaged an unintended sample set.
func (h TenantHandle) SteadyState(lastSeconds float64) Steady {
	e := h.e
	if !(lastSeconds > 0) { // negation also catches NaN
		panic(fmt.Sprintf("sim: SteadyState window %v s is not positive", lastSeconds))
	}
	if lastSeconds > e.timeSec {
		lastSeconds = e.timeSec
	}
	n := e.topo.NumTiers()
	out := Steady{
		LatencyNs:      make([]float64, n),
		AppShare:       make([]float64, n),
		AppBytesPerSec: make([]float64, n),
	}
	cutoff := e.timeSec - lastSeconds
	count := 0
	for _, s := range e.tenants[h.i].samples {
		if s.TimeSec < cutoff {
			continue
		}
		count++
		out.OpsPerSec += s.OpsPerSec
		for t := 0; t < n; t++ {
			out.LatencyNs[t] += s.LatencyNs[t]
			out.AppShare[t] += s.AppShare[t]
			out.AppBytesPerSec[t] += s.AppBytesPerSec[t]
		}
	}
	if count == 0 {
		return out
	}
	out.OpsPerSec /= float64(count)
	for t := 0; t < n; t++ {
		out.LatencyNs[t] /= float64(count)
		out.AppShare[t] /= float64(count)
		out.AppBytesPerSec[t] /= float64(count)
	}
	return out
}

// ScheduleAt registers fn to run at simulation time atSec, before the
// quantum covering that time executes. Events at equal times fire in
// scheduling order. Insertion is a binary search plus shift, so
// experiment scripts can schedule many phase changes without the
// re-sort-per-insert cost growing quadratically.
func (e *Engine) ScheduleAt(atSec float64, fn func(*Engine)) {
	i := sort.Search(len(e.events), func(i int) bool { return e.events[i].at > atSec })
	e.events = append(e.events, event{})
	copy(e.events[i+1:], e.events[i:])
	e.events[i] = event{at: atSec, fn: fn}
}

// Step advances one quantum.
func (e *Engine) Step() error {
	for len(e.events) > 0 && e.events[0].at <= e.timeSec {
		ev := e.events[0]
		e.events = e.events[1:]
		ev.fn(e)
	}

	// Migration traffic decided in the previous quantum is charged now:
	// every tenant's reads and writes land on the shared tiers.
	n := e.topo.NumTiers()
	if cap(e.migLoadBuf) < n {
		e.migLoadBuf = make([]memsys.Load, n)
	}
	migLoad := e.migLoadBuf[:n]
	for t := range migLoad {
		migLoad[t] = memsys.Load{}
	}
	for _, ts := range e.tenants {
		tl := ts.migrator.TrafficLoad()
		for t := range tl {
			migLoad[t] = migLoad[t].Add(tl[t])
		}
		ts.migBytes = ts.migrator.QuantumBytes()
	}

	// One solver source per tenant (name order) plus the machine-wide
	// antagonist last.
	srcs := e.srcBuf[:0]
	for _, ts := range e.tenants {
		ts.shareBuf = ts.as.TierShareInto(ts.shareBuf)
		appSrc := ts.profile.Source(ts.shareBuf)
		appSrc.Inflight *= ts.inflightScale
		srcs = append(srcs, appSrc)
	}
	srcs = append(srcs, e.antagonist.Source(n))
	e.srcBuf = srcs
	reused, err := e.topo.SolveInto(&e.eq, srcs, migLoad, memsys.SolveOptions{})
	if err != nil {
		return fmt.Errorf("sim: quantum %d: %w", e.quantum, err)
	}
	eq := &e.eq
	if reused {
		e.mReuses.Inc()
	} else if eq.Capped {
		e.mCapped.Inc()
	}

	quantumNs := e.cfg.QuantumSec * 1e9
	e.counters.Advance(quantumNs, eq.TierReadRate, eq.LatencyNs)

	e.timeSec += e.cfg.QuantumSec
	e.quantum++
	e.cfg.Obs.SetTime(e.timeSec)
	e.mQuanta.Inc()
	e.hIters.Observe(float64(eq.Iterations))

	// Record trace samples at the configured cadence (all tenants on
	// one clock).
	if e.timeSec-e.lastSampled >= e.cfg.SampleEverySec-1e-12 || len(e.tenants[0].samples) == 0 {
		for i, ts := range e.tenants {
			ts.samples = append(ts.samples, e.makeSample(ts, eq, i))
		}
		e.lastSampled = e.timeSec
	}

	// Let the systems observe and react; their migrations apply to the
	// next quantum's placement and traffic. The shared budget accrues
	// once, then tenants contend in name order.
	e.shared.BeginQuantum(e.cfg.QuantumSec)
	for _, ts := range e.tenants {
		ts.migrator.BeginQuantum(e.cfg.QuantumSec)
	}
	for i, ts := range e.tenants {
		if ts.system != nil {
			// Every field is refilled, the setter included: a wrapping
			// system may swap in a relay that calls the setter it found,
			// and must find the engine's own again next quantum.
			ts.ctx = Context{
				QuantumIndex:     e.quantum,
				TimeSec:          e.timeSec,
				QuantumSec:       e.cfg.QuantumSec,
				Tenant:           ts.name,
				AS:               ts.as,
				Topo:             ts.topo,
				CHA:              e.counters.Read(),
				Migrator:         ts.migrator,
				Sampler:          ts.sampler,
				AppRequestRate:   eq.Sources[i].RequestRate,
				SetInflightScale: ts.setScale,
				RNG:              ts.rngSystem,
				Heat:             ts.heat,
				Obs:              ts.obs,
				Workers:          e.cfg.Workers,
			}
			ts.system.Step(&ts.ctx)
		}
		// Keep the ledger current tenant-by-tenant: the next tenant's
		// capacity view must see this tenant's moves, exactly as a
		// sequential admission/migration pipeline would.
		e.syncLedger(i)
	}
	return nil
}

func (e *Engine) makeSample(ts *tenantState, eq *memsys.Equilibrium, i int) Sample {
	n := e.topo.NumTiers()
	s := Sample{
		TimeSec:              e.timeSec,
		OpsPerSec:            ts.profile.OpsPerSec(eq.Sources[i].RequestRate),
		LatencyNs:            append([]float64(nil), eq.LatencyNs...),
		AppShare:             append([]float64(nil), ts.shareBuf...),
		AppBytesPerSec:       make([]float64, n),
		TotalBytesPerSec:     make([]float64, n),
		MigrationBytesPerSec: float64(ts.migBytes) / e.cfg.QuantumSec,
	}
	bytesPerReq := memsys.CachelineBytes * (1 + ts.profile.WriteFraction)
	for t := 0; t < n; t++ {
		s.AppBytesPerSec[t] = eq.Sources[i].TierRate[t] * bytesPerReq
		s.TotalBytesPerSec[t] = eq.TierLoad[t].Total()
	}
	return s
}

// Run advances the simulation by the given duration.
func (e *Engine) Run(seconds float64) error {
	steps := int(seconds/e.cfg.QuantumSec + 0.5)
	for i := 0; i < steps; i++ {
		if err := e.Step(); err != nil {
			return err
		}
	}
	return nil
}

// LastEquilibrium returns the most recent solved quantum (nil before
// the first step). Sources are index-aligned with tenants (name
// order), with the antagonist last. The value is the engine's own: the
// next Step solves into it, so it stays valid only until then; copy
// what must outlive the quantum.
func (e *Engine) LastEquilibrium() *memsys.Equilibrium {
	if e.quantum == 0 {
		return nil
	}
	return &e.eq
}

// Steady summarizes the trace tail covering the last lastSeconds of
// simulation: mean ops/sec, mean per-tier latency, and mean per-tier
// app bandwidth.
type Steady struct {
	OpsPerSec      float64
	LatencyNs      []float64
	AppShare       []float64
	AppBytesPerSec []float64
}
