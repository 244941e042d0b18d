// Real applications end to end: actually run PageRank on a synthetic
// power-law graph, YCSB-C transactions against an OCC key-value store,
// and the HeMemKV workload against a sharded LRU cache; record each
// application's page-level access profile through the paged arena; then
// drive the tiered-memory simulation with those profiles and compare
// MEMTIS with and without Colloid under 3x contention (Figure 11).
//
//	go run ./examples/realapps
package main

import (
	"fmt"
	"log"
	"sort"

	"colloid/internal/apps/cachelib"
	"colloid/internal/apps/gapbs"
	"colloid/internal/apps/silo"
	"colloid/internal/core"
	"colloid/internal/memsys"
	"colloid/internal/memtis"
	"colloid/internal/paged"
	"colloid/internal/sim"
	"colloid/internal/stats"
	"colloid/internal/workloads"
)

// app bundles a recorded profile with its traffic shape and sizing.
type app struct {
	name    string
	weights []float64
	traffic workloads.Profile
	wsBytes int64
}

func buildApps() ([]app, error) {
	rng := stats.NewRNG(99)
	var out []app

	// --- GAPBS PageRank on a Twitter-like graph ---
	g, err := gapbs.GeneratePowerLaw(200_000, 16, 0.8, rng)
	if err != nil {
		return nil, err
	}
	arena := paged.NewArena(1 << 11)
	pr, err := gapbs.PageRank(g, 0.85, 1e-9, 4, arena)
	if err != nil {
		return nil, err
	}
	fmt.Printf("gapbs: %d nodes, %d edges, PageRank ran %d iterations, %d pages profiled\n",
		g.NumNodes(), g.NumEdges(), pr.Iterations, arena.Pages())
	out = append(out, app{
		name: "gapbs", weights: arena.Profile(), wsBytes: 38 * memsys.GiB,
		traffic: workloads.Profile{Name: "gapbs", Cores: 15, Inflight: 6,
			SeqFraction: 0.5, WriteFraction: 0.1, RequestsPerOp: 1},
	})

	// --- Silo with YCSB-C ---
	store, err := silo.NewStore(1<<11, 164)
	if err != nil {
		return nil, err
	}
	res, err := silo.RunYCSB(store, silo.YCSBConfig{Keys: 300_000, Skew: 0.99, Ops: 1_500_000}, rng)
	if err != nil {
		return nil, err
	}
	fmt.Printf("silo: %d keys loaded, %d reads, %d conflicts\n", store.Len(), res.Reads, res.Conflicts)
	out = append(out, app{
		name: "silo", weights: store.Arena().Profile(), wsBytes: 60 * memsys.GiB,
		traffic: workloads.Profile{Name: "silo", Cores: 15,
			Inflight:    workloads.InflightForObjectSize(192),
			SeqFraction: workloads.SeqFractionForObjectSize(192), RequestsPerOp: 3},
	})

	// --- CacheLib with HeMemKV ---
	cache, err := cachelib.New(cachelib.Config{Shards: 16, CapacityItems: 30_000, ValueBytes: 4096, PageBytes: 1 << 16})
	if err != nil {
		return nil, err
	}
	cfg := cachelib.HeMemKVConfig{Keys: 30_000, HotFrac: 0.2, HotProb: 0.9, GetFrac: 0.9, Ops: 1_000_000}
	if err := cachelib.RunHeMemKV(cache, cfg, rng); err != nil {
		return nil, err
	}
	hits, misses, _ := cache.Stats()
	fmt.Printf("cachelib: %d items, %.1f%% hit rate\n", cache.Len(),
		100*float64(hits)/float64(hits+misses))
	out = append(out, app{
		name: "cachelib", weights: cache.Arena().Profile(), wsBytes: 75 * memsys.GiB,
		traffic: workloads.Profile{Name: "cachelib", Cores: 15,
			Inflight:      workloads.InflightForObjectSize(4096),
			SeqFraction:   workloads.SeqFractionForObjectSize(4096),
			WriteFraction: 0.2, RequestsPerOp: 64},
	})
	return out, nil
}

// skewSummary reports how concentrated an access profile is.
func skewSummary(weights []float64) string {
	w := append([]float64(nil), weights...)
	sort.Sort(sort.Reverse(sort.Float64Slice(w)))
	var total float64
	for _, v := range w {
		total += v
	}
	var acc float64
	pages := 0
	for _, v := range w {
		acc += v
		pages++
		if acc >= 0.9*total {
			break
		}
	}
	return fmt.Sprintf("hottest %.1f%% of pages carry 90%% of accesses",
		100*float64(pages)/float64(len(w)))
}

func simulate(a app, withColloid bool) (float64, error) {
	defaultTier := memsys.DualSocketXeonDefault()
	defaultTier.CapacityBytes = a.wsBytes / 3 // paper: default tier = WS/3
	remote := memsys.DualSocketXeonRemote()
	remote.CapacityBytes = a.wsBytes
	topo, err := memsys.NewTopology(defaultTier, remote)
	if err != nil {
		return 0, err
	}
	var opts *core.Options
	if withColloid {
		opts = &core.Options{}
	}
	engine, err := sim.New(sim.Config{
		Topology:        topo,
		WorkingSetBytes: a.wsBytes / (2 * memsys.MiB) * (2 * memsys.MiB),
		Profile:         a.traffic,
		Antagonist:      workloads.Intensity3x,
		Seed:            5,
	}, sim.WithSystem(memtis.New(memtis.Config{Colloid: opts})))
	if err != nil {
		return 0, err
	}
	fw := &workloads.FromWeights{Weights: a.weights}
	if err := fw.Install(engine.AS(), engine.WorkloadRNG()); err != nil {
		return 0, err
	}
	if err := engine.Run(40); err != nil {
		return 0, err
	}
	return engine.Tenant(0).SteadyState(15).OpsPerSec, nil
}

func main() {
	apps, err := buildApps()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("app        profile skew                                   memtis      +colloid    gain")
	for _, a := range apps {
		vanilla, err := simulate(a, false)
		if err != nil {
			log.Fatal(err)
		}
		colloid, err := simulate(a, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s  %-45s  %7.2fMops  %7.2fMops  %.2fx\n",
			a.name, skewSummary(a.weights), vanilla/1e6, colloid/1e6, colloid/vanilla)
	}
	fmt.Println("\n(3x contention, default tier = working set / 3; paper Figure 11)")
}
