package experiments

import (
	"fmt"

	"colloid/internal/core"
	"colloid/internal/hemem"
	"colloid/internal/sim"
	"colloid/internal/workloads"
)

func init() {
	register("sens", &Experiment{
		Title:    "Colloid parameter sensitivity (HeMem+Colloid, GUPS at 1x)",
		Arms:     sensArms,
		Assemble: sensAssemble,
	})
}

// sensGrid is the swept epsilon x delta parameter grid.
var (
	sensEpsilons = []float64{0.005, 0.01, 0.05}
	sensDeltas   = []float64{0.02, 0.05, 0.15}
)

// Sensitivity reproduces the extended version's epsilon/delta
// sensitivity analysis: steady-state throughput at 1x contention (the
// interior-equilibrium regime, where the hot set splits across tiers)
// for a grid of Colloid parameters. Larger epsilon detects workload
// changes faster but destabilizes steady state; larger delta stabilizes
// at the cost of a wider latency deadband (suboptimal steady-state
// placement). At 2x-3x the equilibrium is a corner (the whole hot set
// belongs in the alternate tier), where the parameters barely matter.
//
// Arm layout: epsilon-major grid, [eps][delta] (stride len(sensDeltas)).
func sensArms(Options) ([]Arm, error) {
	var arms []Arm
	for _, eps := range sensEpsilons {
		for _, delta := range sensDeltas {
			name := fmt.Sprintf("eps=%.3f/delta=%.2f", eps, delta)
			arms = append(arms, Arm{Name: name, Run: func(ctx ArmContext) (any, error) {
				g := workloads.DefaultGUPS()
				e, err := sim.New(gupsConfig(paperTopology(0, 0), g, 1, ctx.Seed, ctx.Options.ShardWorkers, ctx.Options.Heat, ctx.Obs),
					sim.WithSystem(hemem.New(hemem.Config{Colloid: &core.Options{Epsilon: eps, Delta: delta}})))
				if err != nil {
					return nil, err
				}
				secs := ctx.Options.scale(60, 25)
				if err := e.Run(secs); err != nil {
					return nil, err
				}
				return e.Tenant(0).SteadyState(secs / 3), nil
			}})
		}
	}
	return arms, nil
}

func sensAssemble(o Options, results []any) (*Table, error) {
	t := &Table{
		ID:      "sens",
		Title:   "Colloid parameter sensitivity (HeMem+Colloid, GUPS at 1x)",
		Columns: []string{"epsilon", "delta", "Mops", "latency ratio"},
		Notes: []string{
			"paper defaults: epsilon=0.01, delta=0.05",
		},
	}
	i := 0
	for _, eps := range sensEpsilons {
		for _, delta := range sensDeltas {
			st := steadyAt(results, i)
			i++
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.3f", eps), fmt.Sprintf("%.2f", delta),
				fmt.Sprintf("%.1f", st.OpsPerSec/1e6),
				f2(st.LatencyNs[0] / st.LatencyNs[1]),
			})
		}
	}
	return t, nil
}
