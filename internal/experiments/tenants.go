package experiments

// The tenants family measures multi-tenant arbitration (isolated quotas
// vs shared watermark) crossed with the cluster's heat-tracking
// fidelity axis: every tenant exact, every tenant on coarse regions
// (64/1024 pages), or per-class QoS fidelity where premium tenants buy
// exact tracking while best-effort tenants run region/1024 — the
// datacenter configuration the region tracker exists for. Each row
// reports the class's tracker and its summed footprint next to the
// placement-quality columns, so the fidelity/bytes trade-off is visible
// per QoS class. A final scale arm drives the cluster's trackers alone
// at 10^8 total pages across tenants — the address-space size where
// exact counters are untenable — and streams the footprint gauges to
// BENCH_tenants.json via the runner's metrics registry.

import (
	"fmt"
	"strings"

	"colloid/internal/core"
	"colloid/internal/heat"
	"colloid/internal/hemem"
	"colloid/internal/memsys"
	"colloid/internal/pages"
	"colloid/internal/stats"
	"colloid/internal/tenant"
	"colloid/internal/workloads"
)

func init() {
	register("tenants", &Experiment{
		Title:    "multi-tenant cluster: arbitration policy x heat-tracking fidelity",
		Arms:     tenantsArms,
		Assemble: tenantsAssemble,
	})
}

// tenantsShape sizes the cluster per mode: the full experiment runs the
// acceptance configuration — 100 tenants of 10^5 four-KiB pages each —
// against a machine whose default tier holds a quarter of the combined
// working set, so the tenants' hot thirds cannot all fit and the
// policies must arbitrate. Quick mode shrinks everything for CI smoke.
type tenantsShape struct {
	numTenants     int
	pagesPerTenant int64
	pageBytes      int64
	cores          int
	seconds        float64
}

func tenantsShapeFor(o Options) tenantsShape {
	if o.Quick {
		return tenantsShape{numTenants: 8, pagesPerTenant: 2000, pageBytes: 64 << 10, cores: 2, seconds: 1.5}
	}
	return tenantsShape{numTenants: 100, pagesPerTenant: 100_000, pageBytes: 4 << 10, cores: 1, seconds: 5}
}

// tenantsHeatMode is one point on the cluster fidelity axis: a
// cluster-wide default spec plus optional per-class overrides (nil =
// inherit the default), exercising exactly the tenant.Config.Heat /
// Tenant.Heat seam.
type tenantsHeatMode struct {
	name     string
	cluster  heat.Spec
	perClass map[tenant.Class]*heat.Spec
}

// tenantsHeatModes is the fidelity axis. Quick mode keeps the exact
// baseline plus the per-class QoS mode — one arm covering both the
// region-granularity path and the per-tenant override path, so the CI
// smoke (`make bench-tenants`) sweeps coarse tracking without running
// the whole axis.
func tenantsHeatModes(o Options) []tenantsHeatMode {
	region := func(g int) *heat.Spec { return &heat.Spec{Kind: heat.Region, RegionPages: g} }
	qos := tenantsHeatMode{
		name:    "qos",
		cluster: heat.Spec{Kind: heat.Region, RegionPages: 1024},
		perClass: map[tenant.Class]*heat.Spec{
			tenant.Premium:  {}, // exact: premium buys full fidelity
			tenant.Standard: region(64),
			// BestEffort inherits the region/1024 cluster default.
		},
	}
	if o.Quick {
		return []tenantsHeatMode{{name: "exact"}, qos}
	}
	return []tenantsHeatMode{
		{name: "exact"},
		{name: "region/64", cluster: heat.Spec{Kind: heat.Region, RegionPages: 64}},
		{name: "region/1024", cluster: heat.Spec{Kind: heat.Region, RegionPages: 1024}},
		qos,
	}
}

// tenantsResult is one (policy, heat mode) arm's outcome. trackers is
// aligned with reports (name order): each tenant's tracker identity and
// footprint pulled from its system's stats after the run.
type tenantsResult struct {
	policy     tenant.Policy
	heatName   string
	reports    []tenant.Report
	trackers   []hemem.Stats
	saturation []float64
}

func tenantsArms(o Options) ([]Arm, error) {
	var arms []Arm
	for _, p := range []tenant.Policy{tenant.Isolated, tenant.SharedWatermark} {
		for _, hm := range tenantsHeatModes(o) {
			arms = append(arms, Arm{
				Name: "tenants/" + p.String() + "/" + hm.name,
				Run: func(ctx ArmContext) (any, error) {
					return runTenantsArm(p, hm, ctx)
				},
			})
		}
	}
	arms = append(arms, Arm{
		Name: fmt.Sprintf("scale/pages=%d", tenantsScaleTenants(o)*tenantsScalePagesPerTenant(o)),
		Run: func(ctx ArmContext) (any, error) {
			return runTenantsScale(ctx)
		},
	})
	return arms, nil
}

func runTenantsArm(policy tenant.Policy, hm tenantsHeatMode, ctx ArmContext) (any, error) {
	sh := tenantsShapeFor(ctx.Options)
	wss := sh.pagesPerTenant * sh.pageBytes
	total := int64(sh.numTenants) * wss
	// Default tier: a quarter of the combined working set. Alternate
	// tier: 2.5x the combined working set — enough slack that even a
	// best-effort tenant's class-weighted quota can hold its full
	// working set under the isolated policy.
	fast := memsys.DualSocketXeonDefault()
	fast.CapacityBytes = total / 4
	slow := memsys.DualSocketXeonRemote()
	slow.CapacityBytes = total * 5 / 2
	topo := memsys.MustTopology(fast, slow)

	classes := []tenant.Class{tenant.Premium, tenant.Standard, tenant.BestEffort}
	tenants := make([]tenant.Tenant, sh.numTenants)
	for i := range tenants {
		g := &workloads.GUPS{
			WorkingSetBytes: wss,
			HotSetBytes:     wss / 3,
			HotProb:         0.9,
			ObjectBytes:     64,
			Cores:           sh.cores,
		}
		class := classes[i%len(classes)]
		tenants[i] = tenant.Tenant{
			Name:            fmt.Sprintf("t%03d", i),
			WorkingSetBytes: wss,
			Profile:         g.Profile(),
			Class:           class,
			Workload:        g,
			System:          hemem.New(hemem.Config{Colloid: &core.Options{Epsilon: 0.01, Delta: 0.05}}),
			Heat:            hm.perClass[class],
		}
	}
	c, err := tenant.New(tenant.Config{
		Topology:       topo,
		Tenants:        tenants,
		Policy:         policy,
		PageBytes:      sh.pageBytes,
		Seed:           ctx.Seed,
		Workers:        ctx.Options.ShardWorkers,
		SampleEverySec: sh.seconds / 10,
		Heat:           hm.cluster,
		Obs:            ctx.Obs,
	})
	if err != nil {
		return nil, err
	}
	if err := c.Run(sh.seconds); err != nil {
		return nil, err
	}
	res := tenantsResult{
		policy:     policy,
		heatName:   hm.name,
		reports:    c.Reports(sh.seconds / 3),
		saturation: c.Saturation(),
	}
	// Tracker identity and footprint per tenant (name order, aligned
	// with reports): the fidelity each class actually bought.
	res.trackers = make([]hemem.Stats, c.NumTenants())
	for i := 0; i < c.NumTenants(); i++ {
		if hs, ok := c.Tenant(i).System.(*hemem.System); ok {
			res.trackers[i] = hs.Stats()
		}
	}
	return res, nil
}

// tenantsScaleTenants and tenantsScalePagesPerTenant size the cluster
// scale arm: 10 tenants of 10^7 pages each — 10^8 pages total, where
// exact counters alone would pin 400 MB before any policy state — and a
// thousandth of that for CI smoke.
func tenantsScaleTenants(Options) int64 { return 10 }

func tenantsScalePagesPerTenant(o Options) int64 {
	if o.Quick {
		return 100_000
	}
	return 10_000_000
}

type tenantsScaleResult struct {
	tenants        int
	pagesPerTenant int64
	totalPages     int64
	touches        int
	cools          int
	footprint      int64
	exactBytes     int64
	hotChecksum    uint64
}

// runTenantsScale drives one region/1024 tracker per tenant over 10^8
// total pages: each tenant's touch stream is forked from its name (the
// cluster RNG discipline), 70% of touches landing in a drifting hot
// band so the split/merge churn path runs at scale, and the hottest
// pages are read back through ForEachHottest — the call that, before
// span bucketing, would have materialized O(10^7) page IDs per tenant.
// Tenants step sequentially in name order; every column is
// deterministic. Footprint gauges land in BENCH_tenants.json through
// the runner's metrics registry.
func runTenantsScale(ctx ArmContext) (any, error) {
	const granularity = 1024
	nTenants := int(tenantsScaleTenants(ctx.Options))
	perTenant := int(tenantsScalePagesPerTenant(ctx.Options))
	quanta := int(ctx.Options.scale(20, 6))

	root := stats.NewRNG(ctx.Seed)
	touches := 0
	cools := 0
	var footprint int64
	var checksum uint64 = 14695981039346656037
	for ti := 0; ti < nTenants; ti++ {
		name := fmt.Sprintf("t%02d", ti)
		tr := heat.NewRegionTracker(16, granularity, nil)
		tr.SetWorkers(maxInt(ctx.Options.ShardWorkers, 1))
		touches += touchHotBand(tr, root.Fork("tenant:"+name), perTenant, granularity, quanta)
		// Fold the tenant's hottest pages into the digest via the
		// descending-count visit — FNV-1a, capped per tenant.
		visited := 0
		tr.ForEachHottest(func(id pages.PageID, count uint32) bool {
			checksum ^= uint64(uint32(id)) ^ uint64(count)<<32
			checksum *= 1099511628211
			visited++
			return visited >= 1024
		})
		tb := tr.MemoryFootprintBytes()
		footprint += tb
		cools += tr.Cools()
		ctx.Obs.Gauge(fmt.Sprintf("scale_tracker_bytes_t%02d", ti)).Set(float64(tb))
	}
	totalPages := int64(nTenants) * int64(perTenant)
	exactBytes := totalPages * 4
	ctx.Obs.Gauge("scale_total_pages").Set(float64(totalPages))
	ctx.Obs.Gauge("scale_tracker_bytes").Set(float64(footprint))
	ctx.Obs.Gauge("scale_exact_bytes").Set(float64(exactBytes))
	return tenantsScaleResult{
		tenants:        nTenants,
		pagesPerTenant: int64(perTenant),
		totalPages:     totalPages,
		touches:        touches,
		cools:          cools,
		footprint:      footprint,
		exactBytes:     exactBytes,
		hotChecksum:    checksum,
	}, nil
}

// tenantsAssemble folds every (policy, heat) arm into one table: per
// (policy, heat, class) mean throughput and interference, forced
// demotion and shared-budget pressure totals, and the class's tracker
// identity and summed footprint; per-tier saturation lands in the
// notes, and the scale arm appends its own row.
func tenantsAssemble(o Options, results []any) (*Table, error) {
	t := &Table{
		ID:      "tenants",
		Title:   "multi-tenant cluster: arbitration policy x heat-tracking fidelity",
		Columns: []string{"policy", "heat", "class", "tenants", "mean ops/s", "interference", "forced demote MB", "shared-throttled", "tracker", "tracker footprint"},
	}
	classes := []tenant.Class{tenant.Premium, tenant.Standard, tenant.BestEffort}
	for _, r := range results {
		switch res := r.(type) {
		case tenantsResult:
			type agg struct {
				n            int
				ops, interf  float64
				forcedBytes  int64
				throttled    int64
				trackerBytes int64
				trackerName  string
			}
			byClass := map[tenant.Class]*agg{}
			for i, rep := range res.reports {
				a := byClass[rep.Class]
				if a == nil {
					a = &agg{}
					byClass[rep.Class] = a
				}
				a.n++
				a.ops += rep.OpsPerSec
				a.interf += rep.Interference
				a.forcedBytes += rep.ForcedDemotedBytes
				a.throttled += rep.SharedThrottled
				if i < len(res.trackers) {
					a.trackerBytes += res.trackers[i].TrackerBytes
					a.trackerName = res.trackers[i].TrackerName
				}
			}
			for _, cl := range classes {
				a := byClass[cl]
				if a == nil {
					continue
				}
				t.Rows = append(t.Rows, []string{
					res.policy.String(),
					res.heatName,
					cl.String(),
					fmt.Sprintf("%d", a.n),
					fmt.Sprintf("%.3g", a.ops/float64(a.n)),
					fmt.Sprintf("%.2f", a.interf/float64(a.n)),
					fmt.Sprintf("%.1f", float64(a.forcedBytes)/1e6),
					fmt.Sprintf("%d", a.throttled),
					a.trackerName,
					formatBytes(a.trackerBytes),
				})
			}
			sat := make([]string, len(res.saturation))
			for i, u := range res.saturation {
				sat[i] = fmt.Sprintf("tier%d %.2f", i, u)
			}
			t.Notes = append(t.Notes, fmt.Sprintf("%s/%s mean tier saturation: %s", res.policy, res.heatName, strings.Join(sat, ", ")))
		case tenantsScaleResult:
			t.Rows = append(t.Rows, []string{
				"scale", fmt.Sprintf("region/1024 x %d tenants", res.tenants), "-",
				fmt.Sprintf("%d", res.tenants), "-", "-", "-", "-",
				fmt.Sprintf("%d pages total", res.totalPages),
				formatBytes(res.footprint),
			})
			t.Notes = append(t.Notes, fmt.Sprintf(
				"scale arm: %d tenants x %d pages (%d total) on region/1024 trackers; exact counters would pin %s; %d touches, %d cools, hot checksum %#x",
				res.tenants, res.pagesPerTenant, res.totalPages, formatBytes(res.exactBytes), res.touches, res.cools, res.hotChecksum))
		default:
			return nil, fmt.Errorf("experiments: tenants arm returned %T", r)
		}
	}
	t.Notes = append(t.Notes,
		"isolated: class-weighted static quotas per tier; no tenant can take another's capacity, best-effort pays with a smaller default-tier slice",
		"shared-watermark: first-come capacity with kswapd-style forced demotion of the coldest best-effort pages when default-tier free space dips below 2%",
		"heat axis: exact = per-page counters everywhere; region/N = every tenant on N-page regions; qos = premium exact, standard region/64, best-effort region/1024 via per-tenant overrides",
		"tracker footprint is the class's summed tracker bytes (hemem.Stats.TrackerBytes); the scale arm's per-tenant footprints stream to BENCH_tenants.json")
	return t, nil
}
