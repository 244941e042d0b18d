// Multi-tier generalization: three memory tiers (local DDR, remote
// socket, far CXL expander) managed by Colloid's MultiController, which
// extends the principle of balancing access latencies to any number of
// tiers (Section 3.1): move access probability from the
// highest-latency tier to the lowest until all loaded latencies are
// equal.
//
// The example implements a small tiering system directly against the
// library interfaces — demonstrating how a new system integrates: an
// access-tracking source (the PEBS sampler), the controller, and the
// migration engine.
//
//	go run ./examples/multitier
package main

import (
	"fmt"
	"log"

	"colloid/internal/core"
	"colloid/internal/heat"
	"colloid/internal/memsys"
	"colloid/internal/pages"
	"colloid/internal/sim"
	"colloid/internal/workloads"
)

// multiTierSystem is a minimal Colloid integration for N tiers: a
// heat tracker fed by PEBS samples plus the MultiController. The
// tracker comes from Context.Heat, so the example runs on exact or
// region-granularity tracking without code changes.
type multiTierSystem struct {
	ctrl    *core.MultiController
	tracker heat.Tracker
	draws   []pages.PageID // the quantum's PEBS samples, reused
	counts  [256]uint32    // one chunk of tracker counts, reused
}

func (m *multiTierSystem) Name() string { return "multitier-colloid" }

func (m *multiTierSystem) Step(ctx *sim.Context) {
	if m.ctrl == nil {
		unloaded := make([]float64, ctx.Topo.NumTiers())
		for t := range unloaded {
			unloaded[t] = ctx.Topo.Tier(memsys.TierID(t)).Config().UnloadedLatencyNs
		}
		m.ctrl = core.NewMultiController(ctx.Topo.NumTiers(),
			core.Options{UnloadedLatencyNs: unloaded,
				StaticLimitBytesPerSec: ctx.Migrator.StaticLimitBytesPerSec()}, 0.5)
		m.tracker = ctx.Heat.NewTracker(64)
	}
	// PEBS sampling: 500 samples per 10 ms quantum.
	m.draws = ctx.Sampler.SampleN(m.draws[:0], 500)
	for _, id := range m.draws {
		m.tracker.Touch(id)
	}
	d, ok := m.ctrl.Observe(ctx.CHA)
	if !ok || d.Hold {
		return
	}
	limit := int64(d.MigrationLimitBytesPerSec * ctx.QuantumSec)
	if b := ctx.Migrator.Budget(); b < limit {
		limit = b
	}
	// Move tracked pages of the slow tier toward the fast tier, within
	// the deltaP and byte budgets, each as soon as the picker takes it,
	// reading the tracker's counts one chunk at a time in page-ID order.
	// The walk stops once the budgets are spent or a move fails.
	pageBytes := ctx.AS.LiveView().PageBytes
	p := core.NewPicker(d.DeltaP, limit, pageBytes, 4096)
	n := ctx.AS.NumPages()
	for lo := 0; lo < n && !p.Done(); lo += len(m.counts) {
		counts := m.counts[:min(len(m.counts), n-lo)]
		m.tracker.ReadCounts(pages.PageID(lo), counts)
		for k, count := range counts {
			id := pages.PageID(lo + k)
			if count == 0 || ctx.AS.Tier(id) != d.From || !p.Offer(m.tracker.Probability(id)) {
				continue
			}
			if ctx.AS.FreeBytes(d.To) < pageBytes || ctx.Migrator.Move(id, d.To) != nil || p.Done() {
				return
			}
		}
	}
}

func main() {
	local := memsys.DualSocketXeonDefault()
	remote := memsys.DualSocketXeonRemote()
	far := memsys.CXLTier(128 * memsys.GiB)
	far.Name = "far-cxl"
	far.UnloadedLatencyNs = 210 // a second-hop expander
	topo, err := memsys.NewTopology(local, remote, far)
	if err != nil {
		log.Fatal(err)
	}
	gups := workloads.DefaultGUPS()
	gups.WorkingSetBytes = 160 * memsys.GiB
	gups.HotSetBytes = 48 * memsys.GiB
	engine, err := sim.New(sim.Config{
		Topology:        topo,
		WorkingSetBytes: gups.WorkingSetBytes,
		Profile:         gups.Profile(),
		Workload:        gups,
		Antagonist:      workloads.Intensity2x,
		Seed:            3,
	}, sim.WithSystem(&multiTierSystem{}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("three tiers under 2x contention; balancing all loaded latencies:")
	fmt.Println("time    L_ddr   L_remote  L_cxl    Mops    share ddr/remote/cxl")
	for step := 0; step < 12; step++ {
		if err := engine.Run(5); err != nil {
			log.Fatal(err)
		}
		samples := engine.Tenant(0).Samples()
		s := samples[len(samples)-1]
		fmt.Printf("%4.0fs  %6.0fns %7.0fns %6.0fns %7.1f   %.2f/%.2f/%.2f\n",
			s.TimeSec, s.LatencyNs[0], s.LatencyNs[1], s.LatencyNs[2],
			s.OpsPerSec/1e6, s.AppShare[0], s.AppShare[1], s.AppShare[2])
	}
	fmt.Println("\nAt equilibrium the three loaded latencies sit within the delta")
	fmt.Println("deadband of each other (Section 3.1's multi-tier generalization).")
}
