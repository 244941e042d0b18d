package tenant

import (
	"errors"
	"fmt"
	"sort"

	"colloid/internal/heat"
	"colloid/internal/memsys"
	"colloid/internal/obs"
	"colloid/internal/pages"
	"colloid/internal/sim"
	"colloid/internal/workloads"
)

// Config assembles a multi-tenant cluster.
type Config struct {
	// Topology is the shared physical tier set (required).
	Topology *memsys.Topology
	// Tenants declares the workloads (at least one required). Order
	// never matters: the cluster sorts tenants by name, so the set of
	// tenants — not registration order — determines every result bit.
	Tenants []Tenant
	// Policy selects capacity arbitration (default SharedWatermark).
	Policy Policy
	// PageBytes is every tenant's placement granularity (default 2 MB,
	// as in sim.Config).
	PageBytes int64
	// QuantumSec is the engine step (default 10 ms).
	QuantumSec float64
	// Seed makes runs reproducible.
	Seed uint64
	// Workers is the sharded-pipeline fan-out; any value is
	// bit-identical to any other.
	Workers int
	// Antagonist seeds the machine-wide contention generator on the
	// paper's 0x-3x scale.
	Antagonist workloads.Intensity
	// Heat is the cluster-wide access-tracking fidelity (sim.Config.Heat
	// semantics: zero spec = exact per-page counting). Every tenant's
	// system builds its tracker from this spec unless the tenant carries
	// its own Tenant.Heat override.
	Heat heat.Spec
	// SampleEverySec is the per-tenant trace cadence (default 1 s).
	SampleEverySec float64
	// Obs receives metrics; per-tenant streams land under
	// "tenant.<name>." and cluster-level ones under "cluster_". Nil
	// disables instrumentation.
	Obs *obs.Registry
}

// The shared-watermark policy's reclaimer, modelled on kswapd: it keeps
// the free fraction of the default tier that TPP's kswapd keeps, and it
// paces forced demotions like a background reclaimer rather than a
// stop-the-world flush.
const (
	// watermarkFree is the free fraction of the default tier defended.
	watermarkFree = 0.02
	// demotePagesPerQuantum bounds forced demotions per quantum across
	// the whole cluster.
	demotePagesPerQuantum = 32
)

// Cluster steps N tenants against one shared topology and accumulates
// the per-tenant interference and per-tier saturation summaries the
// multi-tenant experiments report.
type Cluster struct {
	cfg     Config // normalized: defaults resolved, tenants sorted
	eng     *sim.Engine
	tenants []Tenant // name order, aligned with engine tenant indices
	victims []int    // forced-demotion order: class weight asc, then name

	quanta  int
	reqSum  []float64 // per tenant: Σ quantum request rates
	latSum  []float64 // per tenant: Σ rate-weighted avg latency
	utilSum []float64 // per tier: Σ quantum utilizations

	forcedMoves []int64 // per tenant: forced demotions
	forcedBytes []int64 // per tenant: forced demotion bytes

	candBuf []pages.Page // scratch for coldest-page selection

	mForced      *obs.Counter
	mForcedBytes *obs.Counter
}

// New builds a cluster: it partitions capacity per the policy and
// builds the underlying sim engine with one named tenant per Tenant,
// which installs each tenant's workload weights from the tenant's
// name-forked stream (see sim.New). New checks the cluster's own
// settings, the tenant count, policy and classes; sim.New checks the
// topology, heat specs, names and working sets and reports them with
// its "sim: " prefix.
func New(cfg Config) (*Cluster, error) {
	var errs []error
	if len(cfg.Tenants) == 0 {
		errs = append(errs, fmt.Errorf("tenant: at least one tenant required"))
	}
	if cfg.Policy != SharedWatermark && cfg.Policy != Isolated {
		errs = append(errs, fmt.Errorf("tenant: unknown policy %d", int(cfg.Policy)))
	}
	for _, t := range cfg.Tenants {
		if t.Class < BestEffort || t.Class > Premium {
			errs = append(errs, fmt.Errorf("tenant: %q: unknown class %d", t.Name, int(t.Class)))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if cfg.QuantumSec == 0 {
		cfg.QuantumSec = 0.01
	}

	// Sort tenants by name so every derived structure (engine indices,
	// victim order, report order) is registration-order independent.
	tenants := append([]Tenant(nil), cfg.Tenants...)
	sort.SliceStable(tenants, func(i, j int) bool { return tenants[i].Name < tenants[j].Name })
	cfg.Tenants = tenants

	specs := make([]sim.TenantSpec, len(tenants))
	for i, t := range tenants {
		specs[i] = sim.TenantSpec{
			Name:            t.Name,
			WorkingSetBytes: t.WorkingSetBytes,
			Profile:         t.Profile,
			Workload:        t.Workload,
			System:          t.System,
			Heat:            t.Heat,
		}
	}
	if cfg.Policy == Isolated {
		if err := partitionIsolated(cfg, specs); err != nil {
			return nil, err
		}
	}

	eng, err := sim.New(sim.Config{
		Topology:       cfg.Topology,
		PageBytes:      cfg.PageBytes,
		Workers:        cfg.Workers,
		QuantumSec:     cfg.QuantumSec,
		Seed:           cfg.Seed,
		SampleEverySec: cfg.SampleEverySec,
		Antagonist:     cfg.Antagonist,
		Heat:           cfg.Heat,
		Obs:            cfg.Obs,
	}, sim.WithTenants(specs...))
	if err != nil {
		return nil, err
	}

	numTiers := cfg.Topology.NumTiers()
	c := &Cluster{
		cfg:          cfg,
		eng:          eng,
		tenants:      tenants,
		reqSum:       make([]float64, len(tenants)),
		latSum:       make([]float64, len(tenants)),
		utilSum:      make([]float64, numTiers),
		forcedMoves:  make([]int64, len(tenants)),
		forcedBytes:  make([]int64, len(tenants)),
		mForced:      cfg.Obs.Counter("cluster_forced_demotions"),
		mForcedBytes: cfg.Obs.Counter("cluster_forced_demoted_bytes"),
	}

	// Victim order for watermark demotion: lowest class weight first,
	// names breaking ties — best-effort tenants absorb pressure before
	// premium ones, deterministically.
	c.victims = make([]int, len(tenants))
	for i := range c.victims {
		c.victims[i] = i
	}
	sort.SliceStable(c.victims, func(a, b int) bool {
		wa, wb := tenants[c.victims[a]].Class.Weight(), tenants[c.victims[b]].Class.Weight()
		if wa != wb {
			return wa < wb
		}
		return tenants[c.victims[a]].Name < tenants[c.victims[b]].Name
	})
	return c, nil
}

// partitionIsolated fills each spec's CapacityQuota and private
// migration limit with its class-weighted working-set share of every
// tier and of sim.DefaultMigrationLimit, each quota rounded down to the
// page size. Specs are already in name order. Without a topology, or
// with a working set that is not positive, there is nothing to
// partition, and sim.New rejects the config.
func partitionIsolated(cfg Config, specs []sim.TenantSpec) error {
	if cfg.Topology == nil {
		return nil
	}
	var weightSum float64
	for _, t := range cfg.Tenants {
		if t.WorkingSetBytes <= 0 {
			return nil
		}
		weightSum += t.Class.Weight() * float64(t.WorkingSetBytes)
	}
	pb := cfg.PageBytes
	if pb == 0 {
		pb = pages.HugePageBytes
	}
	numTiers := cfg.Topology.NumTiers()
	var errs []error
	for i, t := range cfg.Tenants {
		share := t.Class.Weight() * float64(t.WorkingSetBytes) / weightSum
		quota := make([]int64, numTiers)
		var total int64
		for tier := 0; tier < numTiers; tier++ {
			q := int64(share * float64(cfg.Topology.Tier(memsys.TierID(tier)).Config().CapacityBytes))
			q -= q % pb
			quota[tier] = q
			total += q
		}
		if total < t.WorkingSetBytes {
			errs = append(errs, fmt.Errorf(
				"tenant: %q: isolated quota %d bytes (share %.4f) cannot hold working set %d bytes",
				t.Name, total, share, t.WorkingSetBytes))
			continue
		}
		specs[i].CapacityQuota = quota
		specs[i].MigrationLimitBytesPerSec = share * sim.DefaultMigrationLimit
	}
	return errors.Join(errs...)
}

// Engine exposes the underlying sim engine.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// NumTenants returns the tenant count.
func (c *Cluster) NumTenants() int { return len(c.tenants) }

// Tenant returns the i-th tenant declaration (name order).
func (c *Cluster) Tenant(i int) Tenant { return c.tenants[i] }

// Handle returns the engine handle for the i-th tenant (name order).
func (c *Cluster) Handle(i int) sim.TenantHandle { return c.eng.Tenant(i) }

// Step advances one quantum: the engine solves the shared equilibrium
// and steps every tenant's tiering system; then the cluster accumulates
// interference/saturation stats and, under the shared-watermark policy,
// relieves default-tier pressure by force-demoting cold pages of
// low-priority tenants.
func (c *Cluster) Step() error {
	if err := c.eng.Step(); err != nil {
		return err
	}
	eq := c.eng.LastEquilibrium()
	for i := range c.tenants {
		res := eq.Sources[i]
		c.reqSum[i] += res.RequestRate
		c.latSum[i] += res.AvgLatencyNs * res.RequestRate
	}
	topo := c.eng.Topology()
	for t := 0; t < topo.NumTiers(); t++ {
		c.utilSum[t] += topo.Tier(memsys.TierID(t)).Utilization(eq.TierLoad[t])
	}
	c.quanta++
	if c.cfg.Policy == SharedWatermark {
		c.enforceWatermark()
	}
	return nil
}

// Run advances the cluster by the given duration.
func (c *Cluster) Run(seconds float64) error {
	steps := int(seconds/c.cfg.QuantumSec + 0.5)
	for i := 0; i < steps; i++ {
		if err := c.Step(); err != nil {
			return err
		}
	}
	return nil
}

// enforceWatermark is the kswapd analogue: when free default-tier
// capacity falls below the watermark, demote the coldest default-tier
// pages of the lowest-priority tenants until the watermark is restored
// or the per-quantum batch is spent.
func (c *Cluster) enforceWatermark() {
	topo := c.eng.Topology()
	led := c.eng.Ledger()
	capDefault := topo.Capacity(memsys.DefaultTier)
	if capDefault <= 0 {
		return
	}
	free := capDefault - led.Total(memsys.DefaultTier)
	minFree := int64(watermarkFree * float64(capDefault))
	if free >= minFree {
		return
	}
	need := minFree - free
	budget := demotePagesPerQuantum
	for _, vi := range c.victims {
		if need <= 0 || budget <= 0 {
			break
		}
		moved := c.demoteColdest(vi, &need, &budget)
		if moved > 0 {
			// Publish this victim's moves before the next victim's view
			// decides where (and whether) its pages can go.
			c.eng.SyncTenantUsage()
		}
	}
}

// demoteColdest force-demotes up to *budget of tenant vi's coldest
// default-tier pages to the nearest tier with room, decrementing *need
// and *budget as bytes leave. Returns the number of pages moved.
//
// Capacity staleness audit: SyncTenantUsage runs only between victims,
// but a victim cannot over-pack an alternate tier within its own batch.
// The victim's view computes FreeBytes(to) as
// min(quota, physical − ledger.Others(vi, to)) − as.TierBytes(to):
// Others subtracts the victim's own (stale) ledger row from the ledger
// total, so the stale row cancels exactly, and the victim's in-batch
// moves are reflected immediately through its own as.TierBytes. Other
// tenants' rows don't change during the batch (nothing else moves
// between quanta), and pages.Move independently re-checks FreeBytes
// against the same view before committing. The capacity-conservation
// regression test in cluster_test.go pins this under watermark
// pressure with nearly-full alternate tiers.
func (c *Cluster) demoteColdest(vi int, need *int64, budget *int) int {
	h := c.eng.Tenant(vi)
	as := h.AS()
	k := *budget
	// Single-pass partial selection of the k coldest default-tier
	// pages, ordered by (weight, ID) so ties never depend on iteration
	// incidentals.
	best := c.candBuf[:0]
	as.ForEachLive(func(p pages.Page) {
		if p.Tier != memsys.DefaultTier {
			return
		}
		if len(best) == k && !colder(p, best[len(best)-1]) {
			return
		}
		i := sort.Search(len(best), func(i int) bool { return colder(p, best[i]) })
		if len(best) < k {
			best = append(best, pages.Page{})
		}
		copy(best[i+1:], best[i:])
		best[i] = p
	})
	c.candBuf = best

	numTiers := c.eng.Topology().NumTiers()
	moved := 0
	for _, p := range best {
		if *need <= 0 || *budget <= 0 {
			break
		}
		placed := false
		for to := 0; to < numTiers; to++ {
			if memsys.TierID(to) == memsys.DefaultTier {
				continue
			}
			if as.FreeBytes(memsys.TierID(to)) < p.Bytes {
				continue
			}
			if err := h.Migrator().MoveForced(p.ID, memsys.TierID(to)); err != nil {
				continue
			}
			placed = true
			break
		}
		if !placed {
			continue
		}
		moved++
		*need -= p.Bytes
		*budget--
		c.forcedMoves[vi]++
		c.forcedBytes[vi] += p.Bytes
		c.mForced.Inc()
		c.mForcedBytes.Add(p.Bytes)
	}
	return moved
}

// colder orders pages for demotion: lower weight first, page ID
// breaking ties.
func colder(a, b pages.Page) bool {
	if a.Weight != b.Weight {
		return a.Weight < b.Weight
	}
	return a.ID < b.ID
}

// Saturation returns each tier's mean utilization over the run so far.
func (c *Cluster) Saturation() []float64 {
	out := make([]float64, len(c.utilSum))
	if c.quanta == 0 {
		return out
	}
	for t := range out {
		out[t] = c.utilSum[t] / float64(c.quanta)
	}
	return out
}

// Report summarizes one tenant's run.
type Report struct {
	// Name and Class identify the tenant.
	Name  string
	Class Class
	// OpsPerSec is the steady-state throughput over the report's tail
	// window.
	OpsPerSec float64
	// AvgLatencyNs is the tenant's request-weighted mean access latency
	// over the whole run.
	AvgLatencyNs float64
	// Interference is AvgLatencyNs divided by the latency the tenant's
	// final placement would see on idle tiers — 1.0 means no queueing
	// from neighbours, higher means the tenant is paying for shared-tier
	// contention.
	Interference float64
	// TierBytes is the tenant's final placement.
	TierBytes []int64
	// MigratedBytes and Moves are the tenant's own migration totals.
	MigratedBytes int64
	Moves         int64
	// ForcedDemotions and ForcedDemotedBytes count cluster watermark
	// demotions inflicted on this tenant.
	ForcedDemotions    int64
	ForcedDemotedBytes int64
	// SharedThrottled counts proactive moves refused because the
	// cluster-wide migration budget (not the tenant's own cap) was
	// exhausted.
	SharedThrottled int64
}

// Reports summarizes every tenant (name order), averaging throughput
// over the final tailSec, and publishes the summaries as per-tenant
// gauges plus cluster-level saturation gauges so they land in the
// benchmark registry dump.
func (c *Cluster) Reports(tailSec float64) []Report {
	topo := c.eng.Topology()
	numTiers := topo.NumTiers()
	out := make([]Report, len(c.tenants))
	for i, t := range c.tenants {
		h := c.eng.Tenant(i)
		r := Report{
			Name:               t.Name,
			Class:              t.Class,
			OpsPerSec:          h.SteadyState(tailSec).OpsPerSec,
			TierBytes:          make([]int64, numTiers),
			ForcedDemotions:    c.forcedMoves[i],
			ForcedDemotedBytes: c.forcedBytes[i],
			SharedThrottled:    h.Migrator().SharedThrottled(),
		}
		if c.reqSum[i] > 0 {
			r.AvgLatencyNs = c.latSum[i] / c.reqSum[i]
		}
		share := h.AS().TierShare()
		var ideal float64
		for tier := 0; tier < numTiers; tier++ {
			r.TierBytes[tier] = h.AS().TierBytes(memsys.TierID(tier))
			ideal += share[tier] * topo.Tier(memsys.TierID(tier)).UnloadedLatencyNs()
		}
		if ideal > 0 {
			r.Interference = r.AvgLatencyNs / ideal
		}
		r.MigratedBytes, r.Moves, _, _ = h.Migrator().Totals()
		reg := h.Obs()
		reg.Gauge("ops_per_sec").Set(r.OpsPerSec)
		reg.Gauge("avg_latency_ns").Set(r.AvgLatencyNs)
		reg.Gauge("interference").Set(r.Interference)
		reg.Gauge("forced_demoted_bytes").Set(float64(r.ForcedDemotedBytes))
		for tier := 0; tier < numTiers; tier++ {
			reg.Gauge(fmt.Sprintf("tier%d_bytes", tier)).Set(float64(r.TierBytes[tier]))
		}
		out[i] = r
	}
	for t, u := range c.Saturation() {
		c.cfg.Obs.Gauge(fmt.Sprintf("cluster_saturation_tier%d", t)).Set(u)
	}
	return out
}
