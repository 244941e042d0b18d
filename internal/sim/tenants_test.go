package sim

import (
	"strings"
	"testing"

	"colloid/internal/memsys"
	"colloid/internal/obs"
	"colloid/internal/pages"
	"colloid/internal/scenario"
	"colloid/internal/workloads"
)

const tPage = 64 << 10

func smallTopo() *memsys.Topology {
	fast := memsys.DualSocketXeonDefault()
	fast.CapacityBytes = 128 * tPage
	slow := memsys.DualSocketXeonRemote()
	slow.CapacityBytes = 512 * tPage
	return memsys.MustTopology(fast, slow)
}

func smallProfile(name string) workloads.Profile {
	return workloads.Profile{Name: name, Cores: 2, Inflight: memsys.GUPSInflight, WriteFraction: 1, RequestsPerOp: 1}
}

func spec(name string, wssPages int64) TenantSpec {
	return TenantSpec{Name: name, WorkingSetBytes: wssPages * tPage, Profile: smallProfile(name)}
}

// installUniform gives every page equal weight so the solver sees
// a well-formed share vector without a full workload install.
func installUniform(as *pages.AddressSpace) {
	w := 1.0 / float64(as.NumPages())
	for id := range pages.PageID(as.NumPages()) {
		as.SetWeight(id, w)
	}
}

func clusterEngine(t *testing.T, cfg Config, opts ...Option) *Engine {
	t.Helper()
	e, err := New(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e.NumTenants(); i++ {
		installUniform(e.Tenant(i).AS())
	}
	return e
}

// A cluster engine steps, samples every tenant on one clock, and keeps
// tenants addressable by index in name order.
func TestClusterStepsAndSamplesAllTenants(t *testing.T) {
	e := clusterEngine(t, Config{Topology: smallTopo(), PageBytes: tPage, Seed: 7, SampleEverySec: 0.1},
		WithTenants(spec("b", 40), spec("a", 60)))
	if e.NumTenants() != 2 {
		t.Fatalf("tenants = %d, want 2", e.NumTenants())
	}
	// Name order, not registration order.
	if got := e.Tenant(0).Name(); got != "a" {
		t.Fatalf("tenant 0 = %q, want \"a\"", got)
	}
	if err := e.Run(1.0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e.NumTenants(); i++ {
		h := e.Tenant(i)
		if len(h.Samples()) == 0 {
			t.Fatalf("tenant %s recorded no samples", h.Name())
		}
		if st := h.SteadyState(0.5); st.OpsPerSec <= 0 {
			t.Fatalf("tenant %s: no throughput", h.Name())
		}
	}
	// Sources are index-aligned with tenants, antagonist last.
	if eq := e.LastEquilibrium(); len(eq.Sources) != e.NumTenants()+1 {
		t.Fatalf("%d solver sources for %d tenants", len(eq.Sources), e.NumTenants())
	}
}

// The ledger must track every tenant's placement, and tenants together
// must never exceed physical tier capacity.
func TestClusterLedgerMatchesPlacement(t *testing.T) {
	e := clusterEngine(t, Config{Topology: smallTopo(), PageBytes: tPage, Seed: 7},
		WithTenants(spec("a", 100), spec("b", 100)))
	if err := e.Run(0.1); err != nil {
		t.Fatal(err)
	}
	led := e.Ledger()
	for tier := 0; tier < e.Topology().NumTiers(); tier++ {
		var sum int64
		for i := 0; i < e.NumTenants(); i++ {
			got := led.Usage(i, memsys.TierID(tier))
			want := e.Tenant(i).AS().TierBytes(memsys.TierID(tier))
			if got != want {
				t.Errorf("ledger tenant %d tier %d = %d, address space says %d", i, tier, got, want)
			}
			sum += got
		}
		if cap := e.Topology().Capacity(memsys.TierID(tier)); sum > cap {
			t.Errorf("tier %d: tenants hold %d bytes > physical %d", tier, sum, cap)
		}
		if led.Total(memsys.TierID(tier)) != sum {
			t.Errorf("ledger total tier %d = %d, want %d", tier, led.Total(memsys.TierID(tier)), sum)
		}
	}
}

// Per-tenant metrics land under "tenant.<name>." in the shared
// registry.
func TestClusterObsNamespaces(t *testing.T) {
	reg := obs.NewRegistry()
	e := clusterEngine(t, Config{Topology: smallTopo(), PageBytes: tPage, Seed: 7, Obs: reg},
		WithTenants(spec("a", 40), spec("b", 40)))
	if err := e.Run(0.1); err != nil {
		t.Fatal(err)
	}
	vals := reg.Values()
	for _, want := range []string{"tenant.a.migrate_moves", "tenant.b.migrate_moves", "sim_quanta"} {
		if _, ok := vals[want]; !ok {
			t.Errorf("metric %q missing from shared registry", want)
		}
	}
}

// Construction with named tenants must reject the unnamed tenant's
// knobs and the structurally impossible tenant sets, each with a
// pointed error.
func TestClusterConstructionRejections(t *testing.T) {
	topo := smallTopo()
	ok := []TenantSpec{spec("a", 40), spec("b", 40)}
	failing := spec("a", 40)
	failing.Workload = &workloads.FromWeights{}
	cases := []struct {
		name string
		cfg  Config
		opts []Option
		want string
	}{
		{"WithSystem", Config{Topology: topo, PageBytes: tPage}, []Option{WithTenants(ok...), WithSystem(nopSystem{})}, "WithSystem conflicts"},
		{"Config.WorkingSetBytes", Config{Topology: topo, PageBytes: tPage, WorkingSetBytes: tPage}, []Option{WithTenants(ok...)}, "WorkingSetBytes must be unset"},
		{"Config.Profile", Config{Topology: topo, PageBytes: tPage, Profile: smallProfile("x")}, []Option{WithTenants(ok...)}, "Profile must be unset"},
		{"Config.Workload", Config{Topology: topo, PageBytes: tPage, Workload: workloads.DefaultGUPS()}, []Option{WithTenants(ok...)}, "Workload must be unset"},
		{"failed install", Config{Topology: topo, PageBytes: tPage}, []Option{WithTenants(failing, spec("b", 40))}, `sim: tenant "a": workloads: empty weight profile`},
		{"duplicate names", Config{Topology: topo, PageBytes: tPage}, []Option{WithTenants(spec("a", 40), spec("a", 40))}, "duplicate tenant name"},
		{"unnamed", Config{Topology: topo, PageBytes: tPage}, []Option{WithTenants(TenantSpec{WorkingSetBytes: tPage, Profile: smallProfile("x")})}, "tenant name required"},
		{"oversubscribed", Config{Topology: topo, PageBytes: tPage}, []Option{WithTenants(spec("a", 400), spec("b", 400))}, "exceeding topology capacity"},
		{"negative quota", Config{Topology: topo, PageBytes: tPage}, []Option{WithTenants(TenantSpec{Name: "a", WorkingSetBytes: tPage, Profile: smallProfile("a"), CapacityQuota: []int64{-1, 0}})}, "negative capacity quota"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg, tc.opts...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

type nopSystem struct{}

func (nopSystem) Name() string  { return "nop" }
func (nopSystem) Step(*Context) {}

// Topology-mutating events are machine-wide and belong on the
// cluster-level scenario; tenant-targeted events belong on the tenant.
// Both misplacements are rejected at construction.
func TestClusterScenarioScoping(t *testing.T) {
	topo := smallTopo()
	degrade := &scenario.Scenario{Name: "deg", Events: []scenario.Event{
		scenario.TierDegrade{AtSec: 0.1, Tier: 1, LatencyFactor: 2, BandwidthFactor: 1},
	}}
	sw := &scenario.Scenario{Name: "sw", Events: []scenario.Event{
		scenario.ProfileSwitch{AtSec: 0.1, Profile: smallProfile("x")},
	}}

	badTenant := spec("a", 40)
	badTenant.Scenario = degrade
	_, err := New(Config{Topology: topo, PageBytes: tPage}, WithTenants(badTenant, spec("b", 40)))
	if err == nil || !strings.Contains(err.Error(), "mutates the shared topology") {
		t.Fatalf("tenant-level degrade: err = %v", err)
	}

	_, err = New(Config{Topology: topo, PageBytes: tPage}, WithTenants(spec("a", 40), spec("b", 40)), WithScenario(sw))
	if err == nil || !strings.Contains(err.Error(), "targets a single tenant") {
		t.Fatalf("cluster-level profile switch: err = %v", err)
	}

	// The right placements both construct and run.
	okTenant := spec("a", 40)
	okTenant.Scenario = sw
	e := clusterEngine(t, Config{Topology: topo, PageBytes: tPage, Seed: 3},
		WithTenants(okTenant, spec("b", 40)), WithScenario(degrade))
	if err := e.Run(0.2); err != nil {
		t.Fatal(err)
	}
	if got := e.Tenant(0).Profile().Name; got != "x" {
		t.Fatalf("tenant a profile = %q after ProfileSwitch, want \"x\"", got)
	}
	if got := e.Tenant(1).Profile().Name; got != "b" {
		t.Fatalf("tenant b profile = %q, ProfileSwitch leaked across tenants", got)
	}
}

// A per-tenant capacity quota caps that tenant's view without starving
// the others.
func TestClusterCapacityQuota(t *testing.T) {
	quota := []int64{20 * tPage, 120 * tPage}
	q := spec("a", 100)
	q.CapacityQuota = quota
	e := clusterEngine(t, Config{Topology: smallTopo(), PageBytes: tPage, Seed: 7},
		WithTenants(q, spec("b", 100)))
	ha := e.Tenant(0)
	for tier := 0; tier < e.Topology().NumTiers(); tier++ {
		if got := ha.AS().TierBytes(memsys.TierID(tier)); got > quota[tier] {
			t.Errorf("tenant a tier %d: %d bytes > quota %d", tier, got, quota[tier])
		}
		if got := ha.Topology().Capacity(memsys.TierID(tier)); got > quota[tier] {
			t.Errorf("tenant a view capacity tier %d = %d > quota %d", tier, got, quota[tier])
		}
	}
	// The unquota'd tenant still sees the remaining physical capacity.
	if got := e.Tenant(1).AS().TierBytes(memsys.DefaultTier); got == 0 {
		t.Error("tenant b was starved out of the default tier")
	}
}

// Without named tenants the engine holds one unnamed tenant on the
// same ledger and shared-budget path as a cluster: a one-row ledger
// whose view reports physical capacity, the unscoped obs registry, and
// Config's migration limit as the tenant's own cap.
func TestSingleWorkloadIsUnnamedTenant(t *testing.T) {
	build := func(limit float64) (*Engine, *obs.Registry) {
		reg := obs.NewRegistry()
		cfg := Config{Topology: smallTopo(), WorkingSetBytes: 200 * tPage, PageBytes: tPage,
			Profile: smallProfile("w"), Seed: 5, MigrationLimitBytesPerSec: limit, Obs: reg}
		return clusterEngine(t, cfg, WithSystem(nopSystem{})), reg
	}
	e, reg := build(0)
	h := e.Tenant(0)
	if e.NumTenants() != 1 || h.Name() != "" {
		t.Fatalf("tenants = %d, tenant 0 = %q; want one unnamed tenant", e.NumTenants(), h.Name())
	}
	if got := e.Ledger().NumTenants(); got != 1 {
		t.Fatalf("ledger rows = %d, want 1", got)
	}
	if h.Obs() != reg {
		t.Fatal("unnamed tenant does not report into the unscoped registry")
	}
	if err := e.Run(0.1); err != nil {
		t.Fatal(err)
	}
	for tier := 0; tier < e.Topology().NumTiers(); tier++ {
		id := memsys.TierID(tier)
		if got, want := h.Topology().Capacity(id), e.Topology().Capacity(id); got != want {
			t.Errorf("tier %d: view capacity %d, physical %d", tier, got, want)
		}
		if got, want := e.Ledger().Usage(0, id), h.AS().TierBytes(id); got != want {
			t.Errorf("tier %d: ledger %d, address space %d", tier, got, want)
		}
	}
	vals := reg.Values()
	if _, ok := vals["migrate_moves"]; !ok {
		t.Error("migrate_moves missing from the unscoped registry")
	}
	for name := range vals {
		if strings.HasPrefix(name, "tenant.") {
			t.Errorf("unnamed tenant reported a scoped metric %q", name)
		}
	}
	if got := h.Migrator().StaticLimitBytesPerSec(); got != DefaultMigrationLimit {
		t.Errorf("default limit = %v, want %v", got, DefaultMigrationLimit)
	}
	if e, _ = build(NoMigrationLimit); e.Tenant(0).Migrator().StaticLimitBytesPerSec() != 0 {
		t.Errorf("NoMigrationLimit gave limit %v, want 0 (unlimited)", e.Tenant(0).Migrator().StaticLimitBytesPerSec())
	}
}
