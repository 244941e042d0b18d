// Package tenant runs N workloads — tenants — against one shared tier
// topology: the multi-workload datacenter setting TPP was built for and
// the Colloid paper's single-workload evaluation abstracts away. Each
// tenant carries its own address space, traffic profile, tiering system
// and QoS class; the Cluster engine steps them together, arbitrating
// tier capacity and migration bandwidth under either an isolated
// (per-tenant quota) or a shared-watermark policy, and reports
// per-tenant interference and saturation summaries.
//
// Everything is deterministic: tenants are ordered by name, per-tenant
// RNG streams are forked from the tenant name (stats.RNG.Fork), and all
// cross-tenant arbitration runs in that fixed order — so results are
// bit-identical at any worker count and any registration order.
package tenant

import (
	"fmt"

	"colloid/internal/heat"
	"colloid/internal/scenario"
	"colloid/internal/sim"
	"colloid/internal/workloads"
)

// Class is a tenant's QoS class. It sets the tenant's weight in
// capacity partitioning (isolated policy) and its demotion priority
// under watermark pressure (shared policy: best-effort tenants are
// demoted first).
type Class int

const (
	// BestEffort tenants get the smallest capacity share and are the
	// first demoted under shared-tier pressure.
	BestEffort Class = iota
	// Standard is the default class.
	Standard
	// Premium tenants get the largest capacity share and are demoted
	// last.
	Premium
)

// Weight returns the class's share weight in capacity and bandwidth
// partitioning (1/2/4 for best-effort/standard/premium).
func (c Class) Weight() float64 {
	switch c {
	case Premium:
		return 4
	case Standard:
		return 2
	default:
		return 1
	}
}

// String renders the class.
func (c Class) String() string {
	switch c {
	case Premium:
		return "premium"
	case Standard:
		return "standard"
	case BestEffort:
		return "best-effort"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Tenant declares one workload of a cluster.
type Tenant struct {
	// Name identifies the tenant (required, unique). RNG streams and
	// obs namespaces derive from it, so results depend on the name set,
	// never on registration order.
	Name string
	// WorkingSetBytes sizes the tenant's address space (required).
	WorkingSetBytes int64
	// PageBytes is the tenant's placement granularity (0 inherits the
	// cluster default).
	PageBytes int64
	// Profile is the tenant's traffic profile (required).
	Profile workloads.Profile
	// System is the tenant's tiering system (nil = static placement).
	// Every tenant needs its own instance.
	System sim.System
	// Class is the tenant's QoS class (default BestEffort).
	Class Class
	// Workload, when non-nil, installs the tenant's access weights at
	// construction (after first-fit placement), drawing from the
	// tenant's name-forked workload stream (sim.TenantSpec.Workload).
	Workload sim.Workload
	// Scenario is an optional per-tenant disturbance timeline (see
	// sim.TenantSpec.Scenario for which event types are allowed).
	Scenario *scenario.Scenario
	// Heat, when non-nil, overrides the cluster's Config.Heat for this
	// tenant alone — the per-tenant fidelity knob that lets QoS classes
	// buy tracking accuracy (premium exact, best-effort coarse regions)
	// while sharing one topology. Nil inherits the cluster default.
	Heat *heat.Spec
}

func (t Tenant) validate() error {
	if t.Name == "" {
		return fmt.Errorf("tenant: name required")
	}
	if t.WorkingSetBytes <= 0 {
		return fmt.Errorf("tenant: %q: working set required (WorkingSetBytes = %d)", t.Name, t.WorkingSetBytes)
	}
	if t.Class < BestEffort || t.Class > Premium {
		return fmt.Errorf("tenant: %q: unknown class %d", t.Name, int(t.Class))
	}
	if t.Heat != nil {
		if err := t.Heat.Validate(); err != nil {
			return fmt.Errorf("tenant: %q: %w", t.Name, err)
		}
	}
	return nil
}

// Policy selects how the cluster arbitrates shared tier capacity.
type Policy int

const (
	// SharedWatermark lets tenants take default-tier capacity first
	// come, first served; when free capacity falls below the watermark,
	// the cluster force-demotes the coldest pages of the
	// lowest-priority tenants (kswapd-style) to restore headroom.
	SharedWatermark Policy = iota
	// Isolated statically partitions every tier by class-weighted
	// working-set share; tenants cannot take each other's capacity, and
	// each gets a proportional slice of the migration bandwidth.
	Isolated
)

// String renders the policy.
func (p Policy) String() string {
	switch p {
	case SharedWatermark:
		return "shared-watermark"
	case Isolated:
		return "isolated"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}
