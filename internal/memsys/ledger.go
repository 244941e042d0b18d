package memsys

import "fmt"

// Ledger tracks per-tenant, per-tier byte usage for the tenants that
// share one physical topology. It is the contention-accounting half of
// multi-tenant capacity arbitration: a tenant's view of a tier's
// capacity (see Topology.TenantView) is the physical capacity minus
// what every other tenant currently holds there, optionally further
// clamped by a static quota (so a lone tenant's view is the physical
// capacity). The ledger is plain bookkeeping — the simulation engine
// is responsible for keeping it in sync with the tenants' address
// spaces (it updates rows sequentially, so no locking).
type Ledger struct {
	used   [][]int64 // [tenant][tier] bytes resident
	totals []int64   // [tier] sum over tenants
}

// NewLedger returns a zeroed ledger for the given tenant and tier
// counts.
func NewLedger(tenants, tiers int) *Ledger {
	l := &Ledger{
		used:   make([][]int64, tenants),
		totals: make([]int64, tiers),
	}
	for i := range l.used {
		l.used[i] = make([]int64, tiers)
	}
	return l
}

// NumTenants returns the number of tenant rows.
func (l *Ledger) NumTenants() int { return len(l.used) }

// SetUsage replaces tenant's per-tier usage row (perTier is copied).
func (l *Ledger) SetUsage(tenant int, perTier []int64) {
	row := l.used[tenant]
	for t := range row {
		var v int64
		if t < len(perTier) {
			v = perTier[t]
		}
		l.totals[t] += v - row[t]
		row[t] = v
	}
}

// Usage returns tenant's resident bytes on tier t.
func (l *Ledger) Usage(tenant int, t TierID) int64 { return l.used[tenant][t] }

// Total returns all tenants' resident bytes on tier t.
func (l *Ledger) Total(t TierID) int64 { return l.totals[t] }

// Others returns the bytes every tenant except the given one holds on
// tier t.
func (l *Ledger) Others(tenant int, t TierID) int64 {
	return l.totals[t] - l.used[tenant][t]
}

// tenantView scopes a Topology to one tenant's slice of the capacity.
type tenantView struct {
	ledger *Ledger
	tenant int
	quota  []int64 // per-tier static cap; nil = share the physical tier
}

// TenantView returns a topology that shares tp's tiers (so latency,
// bandwidth and degradation state stay machine-wide) but reports
// per-tenant capacities: tier t's capacity becomes
//
//	min(quota[t], physical[t] - ledger.Others(tenant, t))
//
// with either clamp dropping out when quota is nil or ledger is nil.
// A nil quota models the shared policy (first come, first served
// against what the other tenants have not taken); a non-nil quota
// models the isolated policy (a static partition), with the ledger min
// still guaranteeing physical capacity is never oversubscribed even
// when quotas are misconfigured.
func (tp *Topology) TenantView(l *Ledger, tenant int, quota []int64) (*Topology, error) {
	if quota != nil && len(quota) != len(tp.tiers) {
		return nil, fmt.Errorf("memsys: tenant view quota has %d tiers, topology has %d", len(quota), len(tp.tiers))
	}
	if l != nil && (tenant < 0 || tenant >= l.NumTenants()) {
		return nil, fmt.Errorf("memsys: tenant view index %d out of range (%d tenants)", tenant, l.NumTenants())
	}
	if l == nil && quota == nil {
		return nil, fmt.Errorf("memsys: tenant view needs a ledger or a quota (or both)")
	}
	q := quota
	if quota != nil {
		q = append([]int64(nil), quota...)
	}
	return &Topology{tiers: tp.tiers, view: &tenantView{ledger: l, tenant: tenant, quota: q}}, nil
}
