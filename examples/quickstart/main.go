// Quickstart: simulate the paper's testbed (local DDR + remote socket),
// run GUPS under 2x memory interconnect contention with HeMem, then
// with HeMem+Colloid, and compare steady-state throughput and per-tier
// latencies.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"colloid/internal/core"
	"colloid/internal/hemem"
	"colloid/internal/memsys"
	"colloid/internal/sim"
	"colloid/internal/workloads"
)

func run(withColloid bool) (sim.Steady, error) {
	// The Section 2.1 hardware: 32 GB local DDR4 at 70 ns and 96 GB
	// remote-socket memory at 135 ns.
	topo, err := memsys.NewTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	if err != nil {
		return sim.Steady{}, err
	}
	// GUPS: 72 GB working set, 24 GB hot set, 90/10 split, 15 cores.
	gups := workloads.DefaultGUPS()
	var colloid *core.Options
	if withColloid {
		colloid = &core.Options{Epsilon: 0.01, Delta: 0.05}
	}
	engine, err := sim.New(sim.Config{
		Topology:        topo,
		WorkingSetBytes: gups.WorkingSetBytes,
		Profile:         gups.Profile(),
		Workload:        gups,
		Antagonist:      workloads.Intensity2x, // 2x contention
		Seed:            42,
	}, sim.WithSystem(hemem.New(hemem.Config{Colloid: colloid})))
	if err != nil {
		return sim.Steady{}, err
	}
	if err := engine.Run(40); err != nil {
		return sim.Steady{}, err
	}
	return engine.Tenant(0).SteadyState(15), nil
}

func main() {
	vanilla, err := run(false)
	if err != nil {
		log.Fatal(err)
	}
	colloid, err := run(true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("GUPS under 2x memory interconnect contention:")
	fmt.Printf("  hemem          %6.1f Mops/s   L_D=%.0fns L_A=%.0fns\n",
		vanilla.OpsPerSec/1e6, vanilla.LatencyNs[0], vanilla.LatencyNs[1])
	fmt.Printf("  hemem+colloid  %6.1f Mops/s   L_D=%.0fns L_A=%.0fns\n",
		colloid.OpsPerSec/1e6, colloid.LatencyNs[0], colloid.LatencyNs[1])
	fmt.Printf("  speedup        %5.2fx  (paper Figure 5: ~1.9x at 2x intensity)\n",
		colloid.OpsPerSec/vanilla.OpsPerSec)
	fmt.Println()
	fmt.Println("Colloid balanced the tier latencies by moving hot pages to the")
	fmt.Println("alternate tier; vanilla HeMem kept them packed in the (contended)")
	fmt.Println("default tier.")
}
