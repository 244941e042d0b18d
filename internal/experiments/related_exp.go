package experiments

import (
	"fmt"

	"colloid/internal/related"
	"colloid/internal/sim"
	"colloid/internal/workloads"
)

func init() {
	register("related", &Experiment{
		Title:    "related-work placement policies vs Colloid (GUPS)",
		Arms:     relatedArms,
		Assemble: relatedAssemble,
	})
}

// relatedArm runs one related-work policy (BATMAN or Carrefour) at one
// contention intensity.
func relatedArm(policy related.Policy, name string, intensity workloads.Intensity) Arm {
	return Arm{Name: fmt.Sprintf("%s/%dx", name, intensity), Run: func(ctx ArmContext) (any, error) {
		g := workloads.DefaultGUPS()
		e, err := newGUPSSim(paperTopology(0, 0), g, intensity, ctx.Seed, ctx.Options.ShardWorkers, ctx.Options.Heat, ctx.Obs,
			sim.WithSystem(related.New(related.Config{Policy: policy})))
		if err != nil {
			return nil, err
		}
		secs := ctx.Options.scale(60, 25)
		if err := e.Run(secs); err != nil {
			return nil, err
		}
		return e.Tenant(0).SteadyState(secs / 3), nil
	}}
}

// Related runs the Section 6 comparison the paper argues in prose:
// BATMAN (bandwidth-ratio balancing) and Carrefour (rate balancing)
// against latency-aware packing (HeMem) and Colloid, across contention
// intensities. Expectations from the paper's critique: the fixed-ratio
// policies lose at low contention (they park hot pages in the
// higher-latency tier for no reason) and cannot adapt to contention
// (their target is static), while Colloid tracks the optimum at both
// ends.
//
// Arm layout: per intensity, [best, batman, carrefour, hemem,
// hemem+colloid] (stride 5).
func relatedArms(Options) ([]Arm, error) {
	var arms []Arm
	for _, intensity := range intensities {
		arms = append(arms,
			bestArm(intensity),
			relatedArm(related.BATMAN, "batman", intensity),
			relatedArm(related.Carrefour, "carrefour", intensity),
			steadyArm("hemem", false, intensity),
			steadyArm("hemem", true, intensity),
		)
	}
	return arms, nil
}

func relatedAssemble(o Options, results []any) (*Table, error) {
	t := &Table{
		ID:      "related",
		Title:   "related-work placement policies vs Colloid (GUPS)",
		Columns: []string{"intensity", "best-case", "batman", "carrefour", "hemem", "hemem+colloid"},
		Notes: []string{
			"Section 6: bandwidth- or rate-balancing is suboptimal both without contention",
			"(unloaded latencies differ) and with it (latency inflates before saturation)",
		},
	}
	const stride = 5
	for k, intensity := range intensities {
		best := bestAt(results, k*stride)
		batman := steadyAt(results, k*stride+1)
		carrefour := steadyAt(results, k*stride+2)
		hememSt := steadyAt(results, k*stride+3)
		colloidSt := steadyAt(results, k*stride+4)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx", intensity),
			fOps(best.Best.OpsPerSec), fOps(batman.OpsPerSec), fOps(carrefour.OpsPerSec),
			fOps(hememSt.OpsPerSec), fOps(colloidSt.OpsPerSec),
		})
	}
	return t, nil
}
