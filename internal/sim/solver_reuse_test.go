package sim

import (
	"fmt"
	"testing"

	"colloid/internal/memsys"
	"colloid/internal/obs"
	"colloid/internal/pages"
	"colloid/internal/scenario"
	"colloid/internal/stats"
	"colloid/internal/workloads"
)

// scripted runs acts[i] on the quantum whose Context.QuantumIndex is
// at[i] and does nothing on every other quantum, so the quanta between
// its acts repeat the solver's inputs.
type scripted struct {
	at   []int
	acts []func(*Context)
}

func (s *scripted) Name() string { return "scripted" }

func (s *scripted) Step(ctx *Context) {
	for i, q := range s.at {
		if q == ctx.QuantumIndex {
			s.acts[i](ctx)
		}
	}
}

// checkEquilibrium fails unless the engine's equilibrium equals, bit for
// bit, a fresh Solve of the inputs its last Step passed the solver. The
// source and migration-load buffers hold exactly those inputs until the
// next Step refills them.
func checkEquilibrium(t *testing.T, e *Engine) {
	t.Helper()
	fresh, err := e.topo.Solve(e.srcBuf, e.migLoadBuf[:e.topo.NumTiers()], memsys.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := exactResult(e.LastEquilibrium()), exactResult(fresh); got != want {
		t.Fatalf("quantum %d: engine equilibrium differs from a fresh Solve:\n got %s\nwant %s", e.quantum, got, want)
	}
}

// exactResult renders every result field of eq with floats in exact
// hexadecimal, so two renderings are equal only when the fields are
// bit-identical (NaN payloads aside).
func exactResult(eq *memsys.Equilibrium) string {
	return fmt.Sprintf("iterations %d capped %v latency %x read rate %x load %x sources %x",
		eq.Iterations, eq.Capped, eq.LatencyNs, eq.TierReadRate, eq.TierLoad, eq.Sources)
}

// The engine keeps the previous quantum's equilibrium only when every
// solver input is unchanged. One engine steps through phases that each
// change one input kind on their first quantum and then hold still;
// after every Step the equilibrium must equal a fresh Solve, and the
// quiet quanta of every phase must reuse.
func TestSolverReuseTracksEveryInput(t *testing.T) {
	const perPage = 1.0 / 150
	reg := obs.NewRegistry()
	// Pages 0-99 and 150-199 carry the traffic; 100-149 weigh nothing,
	// so moving one of them costs migration traffic but leaves every
	// tier share bit-identical. First-fit puts pages 0-127 in the
	// 128-page default tier.
	sys := &scripted{
		at: []int{10, 20, 40},
		acts: []func(*Context){
			func(ctx *Context) {
				if err := ctx.Migrator.Move(110, 1); err != nil {
					t.Fatal(err)
				}
			},
			func(ctx *Context) {
				if err := ctx.AS.Move(5, 1); err != nil {
					t.Fatal(err)
				}
			},
			func(ctx *Context) { ctx.SetInflightScale(0.5) },
		},
	}
	seqProfile := smallProfile("app")
	seqProfile.SeqFraction = 0.5
	writeProfile := seqProfile
	writeProfile.WriteFraction = 0.5
	events := []scenario.Event{
		scenario.WorkloadShift{AtSec: 0.295, Shift: func(as *pages.AddressSpace, _ *stats.RNG) {
			as.SetWeight(0, 2*perPage)
		}},
		scenario.AntagonistStep{AtSec: 0.495, Intensity: workloads.Intensity3x},
		scenario.AntagonistStep{AtSec: 0.545, Intensity: workloads.Intensity1x},
		scenario.AntagonistStep{AtSec: 0.595, Intensity: workloads.Intensity3x},
		scenario.ProfileSwitch{AtSec: 0.695, Profile: seqProfile},
		scenario.ProfileSwitch{AtSec: 0.745, Profile: writeProfile},
	}
	events = append(events, scenario.TierBrownout(1, 2, 1, 0.795, 0.05).Events...)
	events = append(events, scenario.TierBrownout(0, 1, 0.5, 0.895, 0.05).Events...)
	e, err := New(Config{
		Topology:        smallTopo(),
		PageBytes:       tPage,
		WorkingSetBytes: 200 * tPage,
		Profile:         smallProfile("app"),
		Antagonist:      workloads.Intensity1x,
		Seed:            11,
		Obs:             reg,
	}, WithSystem(sys), WithScenario(&scenario.Scenario{Name: "one input at a time", Events: events}))
	if err != nil {
		t.Fatal(err)
	}
	for id := range pages.PageID(200) {
		if id < 100 || id >= 150 {
			e.AS().SetWeight(id, perPage)
		}
	}

	// Each phase changes its input on its first quantum (the system's
	// act lands one quantum after the Step that runs it).
	phases := []struct {
		name       string
		start, end int
	}{
		{"quiet", 0, 10},
		{"migration traffic", 10, 20},
		{"page moves", 20, 30},
		{"workload shift", 30, 40},
		{"inflight scale", 40, 50},
		{"antagonist square wave", 50, 70},
		{"profile switches", 70, 80},
		{"latency brownout", 80, 90},
		{"bandwidth brownout", 90, 100},
	}
	reuses := reg.Counter("sim_solver_reuses")
	for _, ph := range phases {
		before := reuses.Value()
		for q := ph.start; q < ph.end; q++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			checkEquilibrium(t, e)
		}
		if reuses.Value() == before {
			t.Errorf("phase %q: no quantum reused the equilibrium", ph.name)
		}
	}
	if got := reg.Counter("sim_solver_capped").Value(); got != 0 {
		t.Errorf("sim_solver_capped = %d on a workload far from saturation", got)
	}
}

// The same check on a multi-tenant engine: tenants move pages on
// different quanta under a machine-wide antagonist square wave.
func TestSolverReuseMultiTenant(t *testing.T) {
	reg := obs.NewRegistry()
	mover := func(q int, id pages.PageID) *scripted {
		return &scripted{at: []int{q}, acts: []func(*Context){func(ctx *Context) {
			if err := ctx.Migrator.Move(id, 1); err != nil {
				t.Fatal(err)
			}
		}}}
	}
	a, b, c := spec("a", 40), spec("b", 40), spec("c", 40)
	a.System, b.System, c.System = mover(5, 3), mover(15, 7), nopSystem{}
	e := clusterEngine(t, Config{Topology: smallTopo(), PageBytes: tPage, Seed: 5, Obs: reg},
		WithTenants(a, b, c), WithScenario(scenario.AntagonistSquareWave(0, workloads.Intensity3x, 0.1, 0.4)))
	for q := 0; q < 50; q++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		checkEquilibrium(t, e)
	}
	if reg.Counter("sim_solver_reuses").Value() == 0 {
		t.Fatal("no quantum reused the equilibrium")
	}
}
