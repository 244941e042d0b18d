// Package simtest is the shared test harness for tiering-system tests:
// one place that assembles the paper's dual-socket GUPS testbed, runs a
// system to steady state, and returns the engine plus tail averages.
// Every per-system test package (hemem, tpp, memtis, related) and the
// cross-package soak tests build on it instead of carrying their own
// copies of the setup boilerplate.
package simtest

import (
	"testing"

	"colloid/internal/heat"
	"colloid/internal/memsys"
	"colloid/internal/obs"
	"colloid/internal/scenario"
	"colloid/internal/sim"
	"colloid/internal/workloads"
)

// Scenario describes one GUPS simulation. The zero value (plus Seconds)
// is the standard testbed: paper dual-socket topology, DefaultGUPS, no
// contention.
type Scenario struct {
	// Topology overrides the paper's dual-socket Xeon testbed.
	Topology *memsys.Topology
	// GUPS overrides workloads.DefaultGUPS().
	GUPS *workloads.GUPS
	// Antagonist sets the initial contention on the paper's 0x-3x
	// intensity scale (0 = none).
	Antagonist workloads.Intensity
	// Heat selects the access-tracking fidelity (zero = exact).
	Heat heat.Spec
	// Seconds is the simulated duration (required).
	Seconds float64
	// Seed drives all randomness.
	Seed uint64
	// Workers is the sharded page-pipeline worker count (0 = serial).
	// Results are bit-identical at any value; golden-trace tests sweep it
	// to prove exactly that.
	Workers int
	// DisturbAtSec, when nonzero, steps the antagonist to
	// DisturbIntensity at that time (contention-flip scenarios).
	DisturbAtSec     float64
	DisturbIntensity workloads.Intensity
	// Obs optionally instruments the run.
	Obs *obs.Registry
}

// Run executes the scenario with the given system installed and returns
// the engine and the steady-state averages over the final third of the
// run — the window every system test asserts against.
func Run(tb testing.TB, sys sim.System, sc Scenario) (*sim.Engine, sim.Steady) {
	tb.Helper()
	topo := sc.Topology
	if topo == nil {
		topo = memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	}
	g := sc.GUPS
	if g == nil {
		g = workloads.DefaultGUPS()
	}
	opts := []sim.Option{sim.WithSystem(sys)}
	if sc.DisturbAtSec > 0 {
		opts = append(opts, sim.WithScenario(&scenario.Scenario{
			Name: "simtest-disturb",
			Events: []scenario.Event{
				scenario.AntagonistStep{AtSec: sc.DisturbAtSec, Intensity: sc.DisturbIntensity},
			},
		}))
	}
	e, err := sim.New(sim.Config{
		Topology:        topo,
		WorkingSetBytes: g.WorkingSetBytes,
		Profile:         g.Profile(),
		Antagonist:      sc.Antagonist,
		Heat:            sc.Heat,
		Seed:            sc.Seed,
		Workers:         sc.Workers,
		Obs:             sc.Obs,
	}, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	if err := g.Install(e.AS(), e.WorkloadRNG()); err != nil {
		tb.Fatal(err)
	}
	if err := e.Run(sc.Seconds); err != nil {
		tb.Fatal(err)
	}
	return e, e.Tenant(0).SteadyState(sc.Seconds / 3)
}

// RunGUPS runs the standard testbed — the signature every system test
// package used to duplicate as a private runGUPS helper.
func RunGUPS(tb testing.TB, sys sim.System, intensity workloads.Intensity, seconds float64, seed uint64) (*sim.Engine, sim.Steady) {
	tb.Helper()
	return Run(tb, sys, Scenario{
		Antagonist: intensity,
		Seconds:    seconds,
		Seed:       seed,
	})
}
