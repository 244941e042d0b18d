package experiments

import (
	"fmt"
	"math"

	"colloid/internal/core"
	"colloid/internal/hemem"
	"colloid/internal/obs"
	"colloid/internal/scenario"
	"colloid/internal/sim"
	"colloid/internal/stats"
	"colloid/internal/workloads"
)

func init() {
	register("ablation", &Experiment{
		Title:    "Colloid mechanism ablations (HeMem+Colloid, GUPS)",
		Arms:     ablationExpArms,
		Assemble: ablationAssemble,
	})
}

// ablationArm names one controller variant.
type ablationArm struct {
	name string
	opts core.Options
}

func ablationArms() []ablationArm {
	return []ablationArm{
		{"full-colloid", core.Options{}},
		{"no-ewma", core.Options{AblateEWMA: true}},
		{"no-dynamic-limit", core.Options{AblateDynamicLimit: true}},
		{"no-watermark-reset", core.Options{AblateWatermarkReset: true}},
		{"proportional", core.Options{ProportionalShift: 0.5}},
	}
}

// ablationResult is one variant's measurements.
type ablationResult struct {
	steadyOps float64
	pStd      float64
	afterOps  float64
	recovered bool
}

// Ablation quantifies what each Colloid mechanism contributes
// (DESIGN.md section 4): each arm disables one mechanism and runs
// (a) steady state at 2x contention — throughput and a placement
// stability index (std-dev of p) — and (b) a contention shift 2x -> 0x,
// which moves the equilibrium point and exercises the watermark reset.
//
// Arm layout: one arm per variant, in ablationArms order.
func ablationExpArms(Options) ([]Arm, error) {
	var arms []Arm
	for _, arm := range ablationArms() {
		arm := arm
		arms = append(arms, Arm{Name: arm.name, Run: func(ctx ArmContext) (any, error) {
			return runAblationArm(arm, ctx.Options, ctx.Seed, ctx.Obs)
		}})
	}
	return arms, nil
}

func ablationAssemble(o Options, results []any) (*Table, error) {
	t := &Table{
		ID:      "ablation",
		Title:   "Colloid mechanism ablations (HeMem+Colloid, GUPS)",
		Columns: []string{"variant", "steady Mops @2x", "p stddev", "Mops after 2x->0x", "recovered"},
		Notes: []string{
			"no-watermark-reset is expected to fail the 2x->0x recovery (Figure 4(c));",
			"no-dynamic-limit trades extra migration churn for the same steady state;",
			"no-ewma exposes the controller to counter noise",
		},
	}
	for i, arm := range ablationArms() {
		res := results[i].(ablationResult)
		t.Rows = append(t.Rows, []string{
			arm.name,
			fmt.Sprintf("%.1f", res.steadyOps/1e6),
			fmt.Sprintf("%.4f", res.pStd),
			fmt.Sprintf("%.1f", res.afterOps/1e6),
			fmt.Sprintf("%v", res.recovered),
		})
	}
	return t, nil
}

func runAblationArm(arm ablationArm, o Options, seed uint64, reg *obs.Registry) (ablationResult, error) {
	var res ablationResult
	g := workloads.DefaultGUPS()
	phase1 := o.scale(60, 30)
	// Phase 2 disturbance as a scenario: contention drops to 0x at
	// phase1, so the equilibrium point jumps to p*=1 and the controller
	// must re-bracket.
	sc := &scenario.Scenario{Name: "ablation-contention-drop", Events: []scenario.Event{
		scenario.AntagonistStep{AtSec: phase1, Intensity: workloads.Intensity0x},
	}}
	e, err := newGUPSSim(paperTopology(0, 0), g, 2, seed, o.ShardWorkers, o.Heat, reg,
		sim.WithSystem(hemem.New(hemem.Config{Colloid: &arm.opts})),
		sim.WithScenario(sc))
	if err != nil {
		return res, err
	}
	if err := e.Run(phase1); err != nil {
		return res, err
	}
	st := e.Tenant(0).SteadyState(phase1 / 3)
	res.steadyOps = st.OpsPerSec
	// Placement stability: std-dev of the default share over the tail.
	var w stats.Welford
	for _, s := range e.Tenant(0).Samples() {
		if s.TimeSec > phase1*2/3 {
			w.Observe(s.AppShare[0])
		}
	}
	res.pStd = math.Sqrt(w.Variance())
	// Phase 2: the scenario's contention drop fires on the first quantum
	// past phase1.
	phase2 := o.scale(60, 30)
	if err := e.Run(phase2); err != nil {
		return res, err
	}
	after := e.Tenant(0).SteadyState(phase2 / 3)
	res.afterOps = after.OpsPerSec
	// Recovery criterion: most of the hot set back in the default tier
	// (packed placement is optimal at 0x).
	res.recovered = e.AS().DefaultShare() > 0.7
	return res, nil
}
