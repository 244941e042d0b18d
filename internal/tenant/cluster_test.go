package tenant

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"colloid/internal/core"
	"colloid/internal/heat"
	"colloid/internal/hemem"
	"colloid/internal/memsys"
	"colloid/internal/pages"
	"colloid/internal/sim"
	"colloid/internal/workloads"
)

const testPage = 64 << 10

// testTopology builds a small two-tier machine: tier0 holds tier0Pages
// test pages, tier1 is comfortably larger.
func testTopology(tier0Pages, tier1Pages int64) *memsys.Topology {
	fast := memsys.DualSocketXeonDefault()
	fast.CapacityBytes = tier0Pages * testPage
	slow := memsys.DualSocketXeonRemote()
	slow.CapacityBytes = tier1Pages * testPage
	return memsys.MustTopology(fast, slow)
}

// testGUPS builds a small GUPS workload sized in test pages.
func testGUPS(wssPages int64, cores int) *workloads.GUPS {
	return &workloads.GUPS{
		WorkingSetBytes: wssPages * testPage,
		HotSetBytes:     wssPages / 3 * testPage,
		HotProb:         0.9,
		ObjectBytes:     64,
		Cores:           cores,
	}
}

// testTenants declares three tenants of distinct classes, each with its
// own hemem+colloid instance.
func testTenants() []Tenant {
	mk := func(name string, class Class, wssPages int64) Tenant {
		g := testGUPS(wssPages, 2)
		return Tenant{
			Name:            name,
			WorkingSetBytes: g.WorkingSetBytes,
			Profile:         g.Profile(),
			Class:           class,
			Workload:        g,
			System:          hemem.New(hemem.Config{Colloid: &core.Options{Epsilon: 0.01, Delta: 0.05}}),
		}
	}
	return []Tenant{
		mk("beta", Standard, 60),
		mk("alpha", Premium, 90),
		mk("gamma", BestEffort, 60),
	}
}

// clusterChecksum folds every tenant's live placement plus its report
// into one hash.
func clusterChecksum(t *testing.T, c *Cluster) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i, r := range c.Reports(0.5) {
		h.Write([]byte(r.Name))
		w(math.Float64bits(r.OpsPerSec))
		w(math.Float64bits(r.AvgLatencyNs))
		w(math.Float64bits(r.Interference))
		w(uint64(r.MigratedBytes))
		w(uint64(r.Moves))
		w(uint64(r.ForcedDemotedBytes))
		c.Handle(i).AS().ForEachLive(func(p pages.Page) {
			w(uint64(p.ID))
			w(uint64(p.Tier))
			w(uint64(p.Bytes))
			w(math.Float64bits(p.Weight))
		})
	}
	for _, u := range c.Saturation() {
		w(math.Float64bits(u))
	}
	return h.Sum64()
}

// runCluster builds and runs a cluster for one simulated second with
// the given worker count, policy and tenant registration order.
func runCluster(t *testing.T, workers int, policy Policy, reverse bool) *Cluster {
	t.Helper()
	tenants := testTenants()
	if reverse {
		for i, j := 0, len(tenants)-1; i < j; i, j = i+1, j-1 {
			tenants[i], tenants[j] = tenants[j], tenants[i]
		}
	}
	c, err := New(Config{
		Topology:  testTopology(128, 512),
		Tenants:   tenants,
		Policy:    policy,
		PageBytes: testPage,
		Seed:      42,
		Workers:   workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(1.0); err != nil {
		t.Fatal(err)
	}
	return c
}

// The cluster must be bit-identical at every worker count and at any
// tenant registration order, under both policies: placements, report
// values and saturation all hash equal.
func TestClusterBitIdenticalAcrossWorkersAndOrder(t *testing.T) {
	for _, policy := range []Policy{SharedWatermark, Isolated} {
		t.Run(policy.String(), func(t *testing.T) {
			want := clusterChecksum(t, runCluster(t, 1, policy, false))
			for _, w := range []int{2, 4, 7} {
				if got := clusterChecksum(t, runCluster(t, w, policy, false)); got != want {
					t.Errorf("workers=%d: checksum %#x, want %#x", w, got, want)
				}
			}
			if got := clusterChecksum(t, runCluster(t, 3, policy, true)); got != want {
				t.Errorf("reversed registration order: checksum %#x, want %#x", got, want)
			}
		})
	}
}

// Isolated partitioning must cap every tenant inside its class-weighted
// quota on every tier, and the tenants together must never exceed the
// physical tiers.
func TestIsolatedQuotaCapsPlacement(t *testing.T) {
	c := runCluster(t, 1, Isolated, false)
	topo := c.Engine().Topology()
	for tier := 0; tier < topo.NumTiers(); tier++ {
		var sum int64
		for i := 0; i < c.NumTenants(); i++ {
			h := c.Handle(i)
			used := h.AS().TierBytes(memsys.TierID(tier))
			quota := h.Topology().Capacity(memsys.TierID(tier))
			if used > quota {
				t.Errorf("tenant %s tier %d: %d bytes used > %d quota", h.Name(), tier, used, quota)
			}
			sum += used
		}
		if physical := topo.Capacity(memsys.TierID(tier)); sum > physical {
			t.Errorf("tier %d: tenants use %d bytes > physical %d", tier, sum, physical)
		}
	}
}

// Under Isolated each tenant's private migration cap is its
// class-weighted working-set share of the machine's limit, so the caps
// together partition that limit.
func TestIsolatedMigrationCapsPartitionMachineLimit(t *testing.T) {
	c, err := New(Config{
		Topology:  testTopology(128, 512),
		Tenants:   testTenants(),
		Policy:    Isolated,
		PageBytes: testPage,
	})
	if err != nil {
		t.Fatal(err)
	}
	var weightSum float64
	for i := 0; i < c.NumTenants(); i++ {
		ten := c.Tenant(i)
		weightSum += ten.Class.Weight() * float64(ten.WorkingSetBytes)
	}
	var sum float64
	for i := 0; i < c.NumTenants(); i++ {
		ten := c.Tenant(i)
		want := ten.Class.Weight() * float64(ten.WorkingSetBytes) / weightSum * sim.DefaultMigrationLimit
		got := c.Handle(i).Migrator().StaticLimitBytesPerSec()
		if got != want {
			t.Errorf("tenant %s: migration cap %v, want %v", ten.Name, got, want)
		}
		sum += got
	}
	if math.Abs(sum-sim.DefaultMigrationLimit) > 1e-6*sim.DefaultMigrationLimit {
		t.Errorf("caps sum to %v, want the machine limit %v", sum, sim.DefaultMigrationLimit)
	}
}

// A tenant whose working set cannot fit its class-weighted share must
// be rejected at construction, not discovered as a placement failure.
func TestIsolatedInfeasibleQuotaErrors(t *testing.T) {
	big := testGUPS(500, 2)   // needs most of the machine
	small := testGUPS(100, 2) // its premium weight shrinks big's share
	_, err := New(Config{
		Topology:  testTopology(128, 512),
		PageBytes: testPage,
		Policy:    Isolated,
		Tenants: []Tenant{
			{Name: "big", WorkingSetBytes: big.WorkingSetBytes, Profile: big.Profile(), Class: BestEffort, Workload: big},
			{Name: "small", WorkingSetBytes: small.WorkingSetBytes, Profile: small.Profile(), Class: Premium, Workload: small},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "cannot hold working set") {
		t.Fatalf("err = %v, want isolated-quota infeasibility", err)
	}
}

// Under the shared-watermark policy a full default tier must trigger
// forced demotion, the victims must be the lowest class first, and the
// watermark must be restored when the batch suffices.
func TestWatermarkDemotesBestEffortFirst(t *testing.T) {
	// Static tenants (no tiering systems): only the watermark moves
	// pages. "best" places first (name order) and fills tier0; "prem"
	// lands mostly in tier1.
	gb := testGUPS(100, 2)
	gp := testGUPS(60, 2)
	c, err := New(Config{
		Topology:  testTopology(100, 512),
		PageBytes: testPage,
		Policy:    SharedWatermark,
		Tenants: []Tenant{
			{Name: "best", WorkingSetBytes: gb.WorkingSetBytes, Profile: gb.Profile(), Class: BestEffort, Workload: gb},
			{Name: "prem", WorkingSetBytes: gp.WorkingSetBytes, Profile: gp.Profile(), Class: Premium, Workload: gp},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	reports := c.Reports(0.01)
	var best, prem Report
	for _, r := range reports {
		switch r.Name {
		case "best":
			best = r
		case "prem":
			prem = r
		}
	}
	if best.ForcedDemotions == 0 {
		t.Fatalf("best-effort tenant saw no forced demotions with a full default tier")
	}
	if prem.ForcedDemotions != 0 {
		t.Fatalf("premium tenant was demoted (%d pages) while a best-effort victim sufficed", prem.ForcedDemotions)
	}
	topo := c.Engine().Topology()
	cap0 := topo.Capacity(memsys.DefaultTier)
	free := cap0 - c.Engine().Ledger().Total(memsys.DefaultTier)
	if minFree := int64(watermarkFree * float64(cap0)); free < minFree {
		t.Fatalf("free default-tier bytes %d below watermark %d after demotion", free, minFree)
	}
	// The demoted pages must be the victim's coldest: every page still
	// in tier0 is at least as hot as every demoted page.
	as := c.Handle(0).AS()
	minIn, maxOut := math.Inf(1), math.Inf(-1)
	as.ForEachLive(func(p pages.Page) {
		if p.Tier == memsys.DefaultTier {
			minIn = math.Min(minIn, p.Weight)
		} else {
			maxOut = math.Max(maxOut, p.Weight)
		}
	})
	if maxOut > minIn {
		t.Fatalf("demotion took a page of weight %v while a colder page (%v) stayed resident", maxOut, minIn)
	}
}

// runHeatCluster builds and runs a cluster for one simulated second with
// the given cluster-wide tracker fidelity and optional per-tenant
// overrides keyed by tenant name (nil entry or missing key = inherit).
func runHeatCluster(t *testing.T, policy Policy, clusterHeat heat.Spec, overrides map[string]*heat.Spec) *Cluster {
	t.Helper()
	tenants := testTenants()
	for i := range tenants {
		tenants[i].Heat = overrides[tenants[i].Name]
	}
	c, err := New(Config{
		Topology:  testTopology(128, 512),
		Tenants:   tenants,
		Policy:    policy,
		PageBytes: testPage,
		Seed:      42,
		Workers:   2,
		Heat:      clusterHeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(1.0); err != nil {
		t.Fatal(err)
	}
	return c
}

// Per-tenant heat overrides must commute with the cluster default:
// setting fidelity F on every tenant individually is bit-identical to
// setting F as the cluster default, whichever of the two specs plays
// the default role. This pins the inheritance seam (nil = inherit,
// non-nil = replace) in both directions.
func TestHeatOverrideCommutesWithClusterDefault(t *testing.T) {
	exact := heat.Spec{}
	region := heat.Spec{Kind: heat.Region, RegionPages: 64}
	all := func(s heat.Spec) map[string]*heat.Spec {
		m := make(map[string]*heat.Spec)
		for _, name := range []string{"alpha", "beta", "gamma"} {
			sc := s
			m[name] = &sc
		}
		return m
	}
	for _, policy := range []Policy{SharedWatermark, Isolated} {
		t.Run(policy.String(), func(t *testing.T) {
			regionDefault := clusterChecksum(t, runHeatCluster(t, policy, region, nil))
			exactDefault := clusterChecksum(t, runHeatCluster(t, policy, exact, nil))
			if exactDefault == regionDefault {
				t.Fatalf("exact and region/64 clusters hash identically (%#x); the fidelity axis is not reaching the trackers", exactDefault)
			}
			if got := clusterChecksum(t, runHeatCluster(t, policy, exact, all(region))); got != regionDefault {
				t.Errorf("exact default + region/64 overrides = %#x, want region/64 default %#x", got, regionDefault)
			}
			if got := clusterChecksum(t, runHeatCluster(t, policy, region, all(exact))); got != exactDefault {
				t.Errorf("region/64 default + exact overrides = %#x, want exact default %#x", got, exactDefault)
			}
		})
	}
}

// Per-class fidelity must reach each tenant's own tracker: premium
// overridden to exact, standard to region/64, best-effort inheriting
// the cluster-wide region/1024 — visible through hemem's Stats, with
// the coarse trackers costing less memory than the exact one.
func TestPerTenantTrackerFidelity(t *testing.T) {
	c := runHeatCluster(t, SharedWatermark,
		heat.Spec{Kind: heat.Region, RegionPages: 1024},
		map[string]*heat.Spec{
			"alpha": {}, // Premium buys exact tracking.
			"beta":  {Kind: heat.Region, RegionPages: 64},
			// gamma inherits the cluster-wide region/1024.
		})
	want := map[string]string{"alpha": "exact", "beta": "region/64", "gamma": "region/1024"}
	footprint := make(map[string]int64)
	for i := 0; i < c.NumTenants(); i++ {
		ten := c.Tenant(i)
		st := ten.System.(*hemem.System).Stats()
		if st.TrackerName != want[ten.Name] {
			t.Errorf("tenant %s: tracker %q, want %q", ten.Name, st.TrackerName, want[ten.Name])
		}
		if st.TrackerBytes <= 0 {
			t.Errorf("tenant %s: tracker footprint %d, want positive", ten.Name, st.TrackerBytes)
		}
		footprint[ten.Name] = st.TrackerBytes
	}
	// alpha tracks 90 pages exactly; gamma smears 60 pages over a single
	// region/1024 cell. The whole point of the coarse tracker is that the
	// latter is cheaper.
	if footprint["gamma"] >= footprint["alpha"] {
		t.Errorf("region/1024 footprint %d >= exact footprint %d; coarse tracking saved nothing",
			footprint["gamma"], footprint["alpha"])
	}
}

// Watermark demotion must conserve physical capacity even when the
// alternate tier is nearly full: demoteColdest works from a tenant view
// whose ledger row for the victim itself is stale within a batch, and
// this pins that the stale row cancels (see the audit comment on
// demoteColdest) — no tier ever holds more bytes than it has, across
// sustained promote/demote churn from three hemem instances.
func TestWatermarkCapacityConservation(t *testing.T) {
	tenants := testTenants() // combined WSS 210 pages
	topo := testTopology(128, 90)
	c, err := New(Config{
		Topology:  topo, // 218 pages physical: 8 pages of slack
		Tenants:   tenants,
		Policy:    SharedWatermark,
		PageBytes: testPage,
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 100; step++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		for tier := 0; tier < topo.NumTiers(); tier++ {
			var sum int64
			for i := 0; i < c.NumTenants(); i++ {
				sum += c.Handle(i).AS().TierBytes(memsys.TierID(tier))
			}
			if physical := topo.Capacity(memsys.TierID(tier)); sum > physical {
				t.Fatalf("step %d tier %d: tenants hold %d bytes > physical %d", step, tier, sum, physical)
			}
		}
	}
	var forced int64
	for _, r := range c.Reports(0.5) {
		forced += r.ForcedDemotions
	}
	if forced == 0 {
		t.Fatal("no forced demotions: the watermark was never under pressure, so the test exercised nothing")
	}
}

// Construction must reject bad configurations with one combined error.
func TestClusterValidation(t *testing.T) {
	topo := testTopology(128, 512)
	ok := testTenants()
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"nil topology", Config{Tenants: ok}, "sim: topology required"},
		{"nil topology, isolated", Config{Tenants: ok, Policy: Isolated}, "sim: topology required"},
		{"no tenants", Config{Topology: topo}, "at least one tenant"},
		{"bad policy", Config{Topology: topo, Tenants: ok, Policy: Policy(7)}, "unknown policy"},
		{"unnamed tenant", Config{Topology: topo, Tenants: []Tenant{{WorkingSetBytes: 1}}}, "name required"},
		{"zero working set, isolated", Config{Topology: topo, Policy: Isolated, Tenants: []Tenant{{Name: "x"}}},
			`sim: tenant "x": working set required`},
		{"bad class", Config{Topology: topo, Tenants: []Tenant{{Name: "x", WorkingSetBytes: 1, Class: Class(9)}}}, "unknown class"},
		{"bad cluster heat", Config{Topology: topo, Tenants: ok,
			Heat: heat.Spec{Kind: heat.Region, RegionPages: 3}}, "power of two"},
		{"bad tenant heat", Config{Topology: topo, Tenants: []Tenant{{Name: "x", WorkingSetBytes: 1,
			Heat: &heat.Spec{Kind: heat.Region, RegionPages: 3}}}}, `sim: tenant "x": heat: region granularity`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}
