package experiments

// The scenarios family runs the builtin fault-injection timelines
// (internal/scenario) against a static-placement baseline and
// HeMem+Colloid on the paper testbed. The paper's claim under test:
// because Colloid balances *measured* access latencies, it adapts to
// disturbances no heuristic anticipates — contention square waves, tier
// brown-outs, counter outages, migration-engine stalls — while static
// placement (and placement frozen by a fault) rides them out at
// whatever latency the disturbance imposes.

import (
	"fmt"

	"colloid/internal/core"
	"colloid/internal/hemem"
	"colloid/internal/obs"
	"colloid/internal/scenario"
	"colloid/internal/sim"
	"colloid/internal/workloads"
)

func init() {
	register("scenarios", &Experiment{
		Title: "fault-injection scenarios (static vs hemem+colloid)",
		Arms:  func(o Options) ([]Arm, error) { return scenarioArmsFor(scenario.BuiltinNames()) },
		Assemble: func(o Options, results []any) (*Table, error) {
			return scenariosAssembleFor(scenario.BuiltinNames(), results)
		},
	})
	for _, name := range scenario.BuiltinNames() {
		register("scenario-"+name, &Experiment{
			Title:    "fault-injection scenario: " + name,
			Arms:     func(o Options) ([]Arm, error) { return scenarioArmsFor([]string{name}) },
			Assemble: func(o Options, results []any) (*Table, error) { return scenariosAssembleFor([]string{name}, results) },
		})
	}
}

// scenarioSystems is the arm layout within each scenario: a
// static-placement baseline (no tiering system; the fault hits a frozen
// placement) and HeMem+Colloid (paper defaults).
var scenarioSystems = []string{"static", "hemem+colloid"}

// scenarioResult summarizes one scenario arm.
type scenarioResult struct {
	steady      sim.Steady // tail averages after the last disturbance settles
	meanOps     float64    // mean throughput over the full run
	worstOps    float64    // lowest sampled throughput (depth of the dip)
	meanLatency float64    // request-weighted mean latency over tiers, averaged over samples
	faultEvents int        // injected-fault + recovery events seen in the trace
}

// scenarioFaultKinds are the trace event kinds counted as injected
// faults or recoveries in the scenarios table.
var scenarioFaultKinds = map[string]bool{
	obs.EvTierDegrade:      true,
	obs.EvTierRestore:      true,
	obs.EvCHADropout:       true,
	obs.EvCHARestore:       true,
	obs.EvMigrationStall:   true,
	obs.EvCounterStale:     true,
	obs.EvCounterRecovered: true,
}

// scenarioSeconds is the run length: the builtins are sized for a 60 s
// horizon, plus settling tail; quick mode truncates (late events are
// skipped, the shapes survive).
func scenarioSeconds(o Options) float64 { return o.scale(90, 30) }

func runScenarioArm(name, system string, o Options, seed uint64, reg *obs.Registry) (scenarioResult, error) {
	var res scenarioResult
	sc, err := scenario.Builtin(name)
	if err != nil {
		return res, err
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// Fault-event counting needs the trace on; the runner's per-arm
	// registries come with it off.
	reg.EnableTrace(0)
	g := workloads.DefaultGUPS()
	opts := []sim.Option{sim.WithScenario(sc)}
	if system == "hemem+colloid" {
		opts = append(opts, sim.WithSystem(hemem.New(hemem.Config{
			Colloid: &core.Options{Epsilon: 0.01, Delta: 0.05},
		})))
	}
	e, err := sim.New(gupsConfig(paperTopology(0, 0), g, 0, seed, o.ShardWorkers, o.Heat, reg), opts...)
	if err != nil {
		return res, err
	}
	secs := scenarioSeconds(o)
	if err := e.Run(secs); err != nil {
		return res, err
	}
	res.steady = e.Tenant(0).SteadyState(secs / 6)
	samples := e.Tenant(0).Samples()
	res.worstOps = samples[0].OpsPerSec
	for _, s := range samples {
		res.meanOps += s.OpsPerSec
		if s.OpsPerSec < res.worstOps {
			res.worstOps = s.OpsPerSec
		}
		// Request-weighted latency across tiers: what the application
		// experiences, the quantity Colloid balances.
		var lat, rate float64
		for t := range s.LatencyNs {
			lat += s.AppShare[t] * s.LatencyNs[t]
			rate += s.AppShare[t]
		}
		if rate > 0 {
			res.meanLatency += lat / rate
		}
	}
	res.meanOps /= float64(len(samples))
	res.meanLatency /= float64(len(samples))
	for _, ev := range reg.Events() {
		if scenarioFaultKinds[ev.Kind] {
			res.faultEvents++
		}
	}
	return res, nil
}

// scenarioArmsFor builds the [scenario][static, hemem+colloid] arm grid.
func scenarioArmsFor(names []string) ([]Arm, error) {
	var arms []Arm
	for _, name := range names {
		for _, system := range scenarioSystems {
			arms = append(arms, Arm{
				Name: name + "/" + system,
				Run: func(ctx ArmContext) (any, error) {
					return runScenarioArm(name, system, ctx.Options, ctx.Seed, ctx.Obs)
				},
			})
		}
	}
	return arms, nil
}

func scenariosAssembleFor(names []string, results []any) (*Table, error) {
	t := &Table{
		ID:      "scenarios",
		Title:   "fault-injection scenarios (static vs hemem+colloid)",
		Columns: []string{"scenario", "system", "mean Mops", "worst Mops", "tail Mops", "app ns", "fault events"},
		Notes: []string{
			"worst Mops is the deepest sampled dip; tail Mops averages the final sixth of the run;",
			"app ns is the request-weighted latency the application experiences, averaged over the run;",
			"fault events counts injected faults and recoveries seen in the obs trace",
		},
	}
	i := 0
	for _, name := range names {
		for _, system := range scenarioSystems {
			res := results[i].(scenarioResult)
			i++
			t.Rows = append(t.Rows, []string{
				name, system,
				fmt.Sprintf("%.1f", res.meanOps/1e6),
				fmt.Sprintf("%.1f", res.worstOps/1e6),
				fmt.Sprintf("%.1f", res.steady.OpsPerSec/1e6),
				fmt.Sprintf("%.0f", res.meanLatency),
				fmt.Sprintf("%d", res.faultEvents),
			})
		}
	}
	return t, nil
}
