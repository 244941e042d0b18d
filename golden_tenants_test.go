package colloid

import (
	"fmt"
	"testing"

	"colloid/internal/core"
	"colloid/internal/heat"
	"colloid/internal/hemem"
	"colloid/internal/memsys"
	"colloid/internal/simtest"
	"colloid/internal/tenant"
	"colloid/internal/workloads"
)

// goldenTenantsChecksums pins the multi-tenant cluster behaviour, one
// golden per policy — NOT one per worker count or registration order.
// A worker-dependent or order-dependent result shows up as a mismatch.
// If a hash changes on purpose, update it to the printed actual value
// and say why in the commit message.
var goldenTenantsChecksums = map[tenant.Policy]uint64{
	tenant.SharedWatermark: 0xd02c4a5d30a73e02,
	tenant.Isolated:        0x65e46d3da3187796,
}

// goldenCluster builds the pinned cluster: three tenants of distinct
// QoS classes, each running hemem+colloid over its own GUPS workload,
// on a machine whose default tier cannot hold the combined hot set.
// heatSpec is the cluster-wide tracker fidelity (zero = exact).
func goldenCluster(t *testing.T, policy tenant.Policy, workers int, reverse bool, heatSpec heat.Spec) *tenant.Cluster {
	t.Helper()
	const page = 64 << 10
	fast := memsys.DualSocketXeonDefault()
	fast.CapacityBytes = 128 * page
	slow := memsys.DualSocketXeonRemote()
	slow.CapacityBytes = 512 * page
	mk := func(name string, class tenant.Class, wssPages int64) tenant.Tenant {
		g := &workloads.GUPS{
			WorkingSetBytes: wssPages * page,
			HotSetBytes:     wssPages / 3 * page,
			HotProb:         0.9,
			ObjectBytes:     64,
			Cores:           2,
		}
		return tenant.Tenant{
			Name:            name,
			WorkingSetBytes: g.WorkingSetBytes,
			Profile:         g.Profile(),
			Class:           class,
			Workload:        g,
			System:          hemem.New(hemem.Config{Colloid: &core.Options{Epsilon: 0.01, Delta: 0.05}}),
		}
	}
	tenants := []tenant.Tenant{
		mk("beta", tenant.Standard, 60),
		mk("alpha", tenant.Premium, 90),
		mk("gamma", tenant.BestEffort, 60),
	}
	if reverse {
		for i, j := 0, len(tenants)-1; i < j; i, j = i+1, j-1 {
			tenants[i], tenants[j] = tenants[j], tenants[i]
		}
	}
	c, err := tenant.New(tenant.Config{
		Topology:       memsys.MustTopology(fast, slow),
		Tenants:        tenants,
		Policy:         policy,
		PageBytes:      page,
		Seed:           42,
		Workers:        workers,
		SampleEverySec: 0.25,
		Heat:           heatSpec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// tenantsChecksum folds every tenant's trace, final placement and
// report, plus the cluster saturation vector, into one FNV-1a hash via
// the shared simtest.Digest stream.
func tenantsChecksum(c *tenant.Cluster) uint64 {
	d := simtest.NewDigest()
	for i, r := range c.Reports(1.0) {
		d.Str(r.Name)
		d.F64(r.OpsPerSec)
		d.F64(r.AvgLatencyNs)
		d.F64(r.Interference)
		d.I64(r.MigratedBytes)
		d.I64(r.Moves)
		d.I64(r.ForcedDemotions)
		d.I64(r.ForcedDemotedBytes)
		d.I64(r.SharedThrottled)
		for _, b := range r.TierBytes {
			d.I64(b)
		}
		d.Samples(c.Handle(i).Samples())
		d.Placement(c.Handle(i).AS())
	}
	for _, u := range c.Saturation() {
		d.F64(u)
	}
	return d.Sum()
}

// TestGoldenTenantTraces pins the full multi-tenant behaviour under
// both policies across sharded-pipeline worker counts and tenant
// registration orders. One golden per policy: tenants are keyed by
// name (RNG streams fork from the name, arbitration runs in name
// order), so neither the worker count nor the order tenants were
// declared in may change a single bit.
func TestGoldenTenantTraces(t *testing.T) {
	for policy, golden := range goldenTenantsChecksums {
		for _, w := range goldenWorkerCounts() {
			t.Run(fmt.Sprintf("%s/workers=%d", policy, w), func(t *testing.T) {
				c := goldenCluster(t, policy, w, false, heat.Spec{})
				if err := c.Run(3); err != nil {
					t.Fatal(err)
				}
				if got := tenantsChecksum(c); got != golden {
					t.Fatalf("cluster checksum = %#x, golden %#x (workers=%d)", got, golden, w)
				}
			})
		}
		t.Run(fmt.Sprintf("%s/reversed-registration", policy), func(t *testing.T) {
			c := goldenCluster(t, policy, 3, true, heat.Spec{})
			if err := c.Run(3); err != nil {
				t.Fatal(err)
			}
			if got := tenantsChecksum(c); got != golden {
				t.Fatalf("cluster checksum = %#x, golden %#x (reversed registration order)", got, golden)
			}
		})
	}
}

// TestGoldenTenantTracesRegionOne pins the cluster-wide heat seam with
// the identity configuration: a granularity-1 RegionTracker with a
// passthrough forecaster is, by construction, bit-identical to the
// exact tracker, so running the whole cluster under
// {Kind: Region, RegionPages: 1} must reproduce the exact goldens for
// both policies at every worker count. A divergence means the tenant
// layer is no longer threading Config.Heat faithfully into each
// tenant's simulation (an earlier version silently pinned every
// tenant to exact tracking) or the region tracker's
// degenerate case drifted from the exact one.
func TestGoldenTenantTracesRegionOne(t *testing.T) {
	spec := heat.Spec{Kind: heat.Region, RegionPages: 1, Forecaster: heat.Passthrough{}}
	for policy, golden := range goldenTenantsChecksums {
		for _, w := range goldenWorkerCounts() {
			t.Run(fmt.Sprintf("%s/workers=%d", policy, w), func(t *testing.T) {
				c := goldenCluster(t, policy, w, false, spec)
				if err := c.Run(3); err != nil {
					t.Fatal(err)
				}
				if got := tenantsChecksum(c); got != golden {
					t.Fatalf("region/1+passthrough cluster checksum = %#x, exact golden %#x (workers=%d)", got, golden, w)
				}
			})
		}
	}
}
