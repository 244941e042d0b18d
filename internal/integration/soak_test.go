// Package integration runs cross-package soak tests: every tiering
// system against randomized scenarios, checking the invariants that
// must hold regardless of policy decisions — capacity bounds, byte and
// weight conservation, trace sanity.
package integration

import (
	"fmt"
	"math"
	"testing"

	"colloid/internal/core"
	"colloid/internal/hemem"
	"colloid/internal/memsys"
	"colloid/internal/memtis"
	"colloid/internal/pages"
	"colloid/internal/related"
	"colloid/internal/sim"
	"colloid/internal/simtest"
	"colloid/internal/tpp"
	"colloid/internal/workloads"
)

// allSystems enumerates every policy under test.
func allSystems() map[string]func() sim.System {
	colloid := func() *core.Options { return &core.Options{} }
	return map[string]func() sim.System{
		"hemem":          func() sim.System { return hemem.New(hemem.Config{}) },
		"hemem+colloid":  func() sim.System { return hemem.New(hemem.Config{Colloid: colloid()}) },
		"tpp":            func() sim.System { return tpp.New(tpp.Config{}) },
		"tpp+colloid":    func() sim.System { return tpp.New(tpp.Config{Colloid: colloid()}) },
		"memtis":         func() sim.System { return memtis.New(memtis.Config{}) },
		"memtis+colloid": func() sim.System { return memtis.New(memtis.Config{Colloid: colloid()}) },
		"batman":         func() sim.System { return related.New(related.Config{Policy: related.BATMAN}) },
		"carrefour":      func() sim.System { return related.New(related.Config{Policy: related.Carrefour}) },
	}
}

type scenario struct {
	name       string
	intensity  workloads.Intensity
	wsGiB      int64
	hotGiB     int64
	object     int64
	disturbSec float64 // contention flip time (0 = none)
}

func soakScenarios() []scenario {
	return []scenario{
		{"packed-fits", 0, 24, 8, 64, 0},
		{"standard", 2, 72, 24, 64, 0},
		{"oversubscribed-hot", 3, 96, 48, 64, 0},
		{"large-objects", 1, 72, 24, 4096, 0},
		{"contention-flip", 0, 72, 24, 64, 5},
	}
}

// checkInvariants asserts, for every tenant of e, the capacity, byte,
// weight and trace invariants, plus the ledger: each tenant's row
// equals its address space's tier bytes, and no tier holds more than
// its physical capacity. wsBytes is the combined working set.
func checkInvariants(t *testing.T, label string, e *sim.Engine, wsBytes int64) {
	t.Helper()
	topo := e.Topology()
	led := e.Ledger()
	var totalBytes int64
	for i := 0; i < e.NumTenants(); i++ {
		h := e.Tenant(i)
		as := h.AS()
		for tier := 0; tier < topo.NumTiers(); tier++ {
			id := memsys.TierID(tier)
			tb := as.TierBytes(id)
			if tb < 0 {
				t.Fatalf("%s: tenant %d: negative tier bytes on tier %d", label, i, tier)
			}
			if c := h.Topology().Capacity(id); tb > c {
				t.Fatalf("%s: tenant %d: tier %d over capacity: %d > %d", label, i, tier, tb, c)
			}
			if u := led.Usage(i, id); u != tb {
				t.Fatalf("%s: tenant %d: ledger tier %d = %d, address space holds %d", label, i, tier, u, tb)
			}
			totalBytes += tb
		}
		var totalWeight float64
		as.ForEachLive(func(p pages.Page) { totalWeight += p.Weight })
		if math.Abs(totalWeight-1) > 1e-6 {
			t.Fatalf("%s: tenant %d: weights sum to %v", label, i, totalWeight)
		}
		var shareSum float64
		for _, s := range as.TierShare() {
			if s < -1e-9 {
				t.Fatalf("%s: tenant %d: negative tier share %v", label, i, s)
			}
			shareSum += s
		}
		if math.Abs(shareSum-1) > 1e-6 {
			t.Fatalf("%s: tenant %d: tier shares sum to %v", label, i, shareSum)
		}
		for _, s := range h.Samples() {
			if s.OpsPerSec <= 0 || math.IsNaN(s.OpsPerSec) {
				t.Fatalf("%s: tenant %d: bad throughput sample %v at t=%v", label, i, s.OpsPerSec, s.TimeSec)
			}
			for tier, l := range s.LatencyNs {
				unloaded := topo.Tier(memsys.TierID(tier)).Config().UnloadedLatencyNs
				if l < unloaded-1e-9 || math.IsNaN(l) {
					t.Fatalf("%s: tenant %d: latency %v below unloaded %v at t=%v", label, i, l, unloaded, s.TimeSec)
				}
			}
			if s.MigrationBytesPerSec < 0 {
				t.Fatalf("%s: tenant %d: negative migration rate at t=%v", label, i, s.TimeSec)
			}
		}
	}
	if totalBytes != wsBytes {
		t.Fatalf("%s: working set changed size: %d != %d", label, totalBytes, wsBytes)
	}
	for tier := 0; tier < topo.NumTiers(); tier++ {
		id := memsys.TierID(tier)
		if total, c := led.Total(id), topo.Capacity(id); total > c {
			t.Fatalf("%s: ledger tier %d holds %d bytes > physical %d", label, tier, total, c)
		}
	}
}

func TestSoakAllSystemsAllScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	for _, sc := range soakScenarios() {
		for name, mk := range allSystems() {
			label := fmt.Sprintf("%s/%s", sc.name, name)
			t.Run(label, func(t *testing.T) {
				g := &workloads.GUPS{
					WorkingSetBytes: sc.wsGiB * memsys.GiB,
					HotSetBytes:     sc.hotGiB * memsys.GiB,
					HotProb:         0.9,
					ObjectBytes:     sc.object,
					Cores:           15,
				}
				e, _ := simtest.Run(t, mk(), simtest.Scenario{
					GUPS:             g,
					Antagonist:       sc.intensity,
					Seconds:          12,
					Seed:             7,
					DisturbAtSec:     sc.disturbSec,
					DisturbIntensity: workloads.Intensity3x,
				})
				checkInvariants(t, label, e, g.WorkingSetBytes)
			})
		}
	}
}

// Three-tier topologies must work with every Colloid-enabled system
// (the two-tier Controller aggregates alternates).
func TestSoakThreeTiers(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	topo := memsys.MustTopology(
		memsys.DualSocketXeonDefault(),
		memsys.DualSocketXeonRemote(),
		memsys.CXLTier(128*memsys.GiB),
	)
	for name, mk := range allSystems() {
		t.Run(name, func(t *testing.T) {
			g := &workloads.GUPS{
				WorkingSetBytes: 160 * memsys.GiB,
				HotSetBytes:     48 * memsys.GiB,
				HotProb:         0.9,
				ObjectBytes:     64,
				Cores:           15,
			}
			e, _ := simtest.Run(t, mk(), simtest.Scenario{
				Topology:   topo,
				GUPS:       g,
				Antagonist: workloads.Intensity2x,
				Seconds:    10,
				Seed:       11,
			})
			checkInvariants(t, name, e, g.WorkingSetBytes)
		})
	}
}

// Determinism across the whole stack: identical seeds give identical
// traces for every system.
func TestSoakDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	for name, mk := range allSystems() {
		t.Run(name, func(t *testing.T) {
			run := func() []sim.Sample {
				e, _ := simtest.Run(t, mk(), simtest.Scenario{
					Antagonist: workloads.Intensity2x,
					Seconds:    8,
					Seed:       99,
				})
				return e.Tenant(0).Samples()
			}
			a, b := run(), run()
			if len(a) != len(b) {
				t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i].OpsPerSec != b[i].OpsPerSec || a[i].MigrationBytesPerSec != b[i].MigrationBytesPerSec {
					t.Fatalf("sample %d differs", i)
				}
			}
		})
	}
}
