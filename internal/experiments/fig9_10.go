package experiments

import (
	"fmt"

	"colloid/internal/obs"
	"colloid/internal/scenario"
	"colloid/internal/sim"
	"colloid/internal/workloads"
)

func init() {
	register("fig9", &Experiment{
		Title:    "convergence under dynamism (throughput before/after, convergence time)",
		Arms:     fig9Arms,
		Assemble: fig9Assemble,
	})
	register("fig10", &Experiment{
		Title:    "HeMem migration rate under dynamism",
		Arms:     fig10Arms,
		Assemble: fig10Assemble,
	})
	register("fig9-series", &Experiment{
		Title:    "instantaneous throughput and migration rate time series",
		Arms:     fig9Arms,
		Assemble: fig9SeriesAssemble,
	})
}

// dynamicScenario describes one Figure 9 column.
type dynamicScenario struct {
	name        string
	intensity0  workloads.Intensity
	atSec       float64
	shiftHotSet bool
	intensity1  workloads.Intensity // applied at atSec when != intensity0
}

func fig9Scenarios(o Options) []dynamicScenario {
	at := o.scale(100, 40)
	return []dynamicScenario{
		{"hotset-shift@0x", 0, at, true, 0},
		{"hotset-shift@3x", 3, at, true, 3},
		{"contention-step", 0, at, false, 3},
	}
}

// timeline renders the column's disturbance as a scenario over g: the
// hot-set shift and the contention step fire at atSec, shift first
// (events at equal times fire in declared order).
func (sc dynamicScenario) timeline(g *workloads.GUPS) *scenario.Scenario {
	s := &scenario.Scenario{Name: sc.name}
	if sc.shiftHotSet {
		s.Events = append(s.Events, scenario.WorkloadShift{AtSec: sc.atSec, Shift: g.ShiftHotSet})
	}
	if sc.intensity1 != sc.intensity0 {
		s.Events = append(s.Events, scenario.AntagonistStep{AtSec: sc.atSec, Intensity: sc.intensity1})
	}
	return s
}

// runDynamic executes one (system, scenario) arm with the given seed
// and returns the trace.
func runDynamic(system string, withColloid bool, sc dynamicScenario, o Options, seed uint64, reg *obs.Registry) ([]sim.Sample, error) {
	g := workloads.DefaultGUPS()
	sys, err := newSystem(system, withColloid)
	if err != nil {
		return nil, err
	}
	e, err := newGUPSSim(paperTopology(0, 0), g, sc.intensity0, seed, o.ShardWorkers, o.Heat, reg,
		sim.WithSystem(sys), sim.WithScenario(sc.timeline(g)))
	if err != nil {
		return nil, err
	}
	total := sc.atSec + convergeSeconds(system, o)
	if err := e.Run(total); err != nil {
		return nil, err
	}
	return e.Tenant(0).Samples(), nil
}

// dynamicArm wraps one (scenario, system, colloid) dynamic run.
func dynamicArm(sc dynamicScenario, system string, withColloid bool) Arm {
	name := system
	if withColloid {
		name += "+colloid"
	}
	return Arm{Name: sc.name + "/" + name, Run: func(ctx ArmContext) (any, error) {
		return runDynamic(system, withColloid, sc, ctx.Options, ctx.Seed, ctx.Obs)
	}}
}

// samplesAt asserts results[i] back to a dynamic arm's trace.
func samplesAt(results []any, i int) []sim.Sample { return results[i].([]sim.Sample) }

// convergenceTime returns how long after the disturbance the trace
// takes to stay within tol of its final level.
func convergenceTime(samples []sim.Sample, atSec float64, tol float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	final := samples[len(samples)-1].OpsPerSec
	conv := samples[len(samples)-1].TimeSec
	for i := len(samples) - 1; i >= 0; i-- {
		s := samples[i]
		if s.TimeSec <= atSec {
			break
		}
		if diff := s.OpsPerSec - final; diff > tol*final || diff < -tol*final {
			break
		}
		conv = s.TimeSec
	}
	return conv - atSec
}

// Figure 9: instantaneous throughput over time for each system with and
// without Colloid under three dynamism scenarios: hot-set shift at 0x,
// hot-set shift at 3x, and a 0x->3x contention step. The table reports
// pre/post throughput and convergence time; fig9-series emits the full
// time series.
//
// Arm layout: [scenario][system][vanilla, colloid] (shared with
// fig9-series).
func fig9Arms(o Options) ([]Arm, error) {
	var arms []Arm
	for _, sc := range fig9Scenarios(o) {
		for _, sys := range systemNames {
			for _, withColloid := range []bool{false, true} {
				arms = append(arms, dynamicArm(sc, sys, withColloid))
			}
		}
	}
	return arms, nil
}

func fig9Assemble(o Options, results []any) (*Table, error) {
	t := &Table{
		ID:      "fig9",
		Title:   "convergence under dynamism (throughput before/after, convergence time)",
		Columns: []string{"scenario", "system", "pre Mops", "post Mops", "conv sec"},
		Notes: []string{
			"paper: Colloid preserves each system's convergence time on access-pattern changes;",
			"on contention changes vanilla systems never react (conv time reflects staying degraded)",
		},
	}
	i := 0
	for _, sc := range fig9Scenarios(o) {
		for _, sys := range systemNames {
			for _, withColloid := range []bool{false, true} {
				samples := samplesAt(results, i)
				i++
				var pre float64
				for _, s := range samples {
					if s.TimeSec <= sc.atSec {
						pre = s.OpsPerSec
					}
				}
				post := samples[len(samples)-1].OpsPerSec
				conv := convergenceTime(samples, sc.atSec, 0.05)
				name := sys
				if withColloid {
					name += "+colloid"
				}
				t.Rows = append(t.Rows, []string{
					sc.name, name, fmt.Sprintf("%.1f", pre/1e6),
					fmt.Sprintf("%.1f", post/1e6), f1(conv),
				})
			}
		}
	}
	return t, nil
}

// fig9SeriesAssemble emits the full per-second time series behind
// Figures 9 and 10 (throughput and migration rate for every
// scenario/system/arm) so the plots can be regenerated point for point.
func fig9SeriesAssemble(o Options, results []any) (*Table, error) {
	t := &Table{
		ID:      "fig9-series",
		Title:   "instantaneous throughput and migration rate time series",
		Columns: []string{"scenario", "system", "t sec", "Mops", "mig MB/s"},
	}
	i := 0
	for _, sc := range fig9Scenarios(o) {
		for _, sys := range systemNames {
			for _, withColloid := range []bool{false, true} {
				samples := samplesAt(results, i)
				i++
				name := sys
				if withColloid {
					name += "+colloid"
				}
				for _, s := range samples {
					t.Rows = append(t.Rows, []string{
						sc.name, name,
						fmt.Sprintf("%.0f", s.TimeSec),
						fmt.Sprintf("%.1f", s.OpsPerSec/1e6),
						fmt.Sprintf("%.1f", s.MigrationBytesPerSec/1e6),
					})
				}
			}
		}
	}
	return t, nil
}

// Figure 10: migration rate over time for HeMem and HeMem+Colloid
// across the Figure 9 scenarios. The table reports the peak and steady
// migration rates; the paper's observations are that Colloid does not
// exceed vanilla HeMem's peak rate and decays more gradually near the
// equilibrium (the dynamic migration limit).
//
// Arm layout: [scenario][vanilla, colloid], HeMem only.
func fig10Arms(o Options) ([]Arm, error) {
	var arms []Arm
	for _, sc := range fig9Scenarios(o) {
		for _, withColloid := range []bool{false, true} {
			arms = append(arms, dynamicArm(sc, "hemem", withColloid))
		}
	}
	return arms, nil
}

func fig10Assemble(o Options, results []any) (*Table, error) {
	t := &Table{
		ID:      "fig10",
		Title:   "HeMem migration rate under dynamism",
		Columns: []string{"scenario", "system", "peak GB/s", "steady MB/s"},
		Notes: []string{
			"paper: HeMem+Colloid stays under HeMem's peak; steady-state migration <0.7% of app bandwidth",
		},
	}
	i := 0
	for _, sc := range fig9Scenarios(o) {
		for _, withColloid := range []bool{false, true} {
			samples := samplesAt(results, i)
			i++
			var peak float64
			var steadySum float64
			var steadyN int
			last := samples[len(samples)-1].TimeSec
			for _, s := range samples {
				if s.MigrationBytesPerSec > peak {
					peak = s.MigrationBytesPerSec
				}
				if s.TimeSec > last-10 {
					steadySum += s.MigrationBytesPerSec
					steadyN++
				}
			}
			steady := 0.0
			if steadyN > 0 {
				steady = steadySum / float64(steadyN)
			}
			name := "hemem"
			if withColloid {
				name += "+colloid"
			}
			t.Rows = append(t.Rows, []string{
				sc.name, name,
				fmt.Sprintf("%.2f", peak/1e9),
				fmt.Sprintf("%.1f", steady/1e6),
			})
		}
	}
	return t, nil
}
