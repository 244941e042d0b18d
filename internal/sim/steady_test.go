package sim

import (
	"testing"

	"colloid/internal/memsys"
)

// steadyEngine builds a bare engine with a hand-crafted trace so the
// window arithmetic can be pinned exactly, independent of the solver.
func steadyEngine(t *testing.T, times []float64, ops []float64, now float64) *Engine {
	t.Helper()
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	e := &Engine{topo: topo, timeSec: now, tenants: []*tenantState{{topo: topo}}}
	for i, ts := range times {
		e.tenants[0].samples = append(e.tenants[0].samples, Sample{
			TimeSec:        ts,
			OpsPerSec:      ops[i],
			LatencyNs:      make([]float64, topo.NumTiers()),
			AppShare:       make([]float64, topo.NumTiers()),
			AppBytesPerSec: make([]float64, topo.NumTiers()),
		})
	}
	return e
}

// A sample lying exactly on the cutoff (TimeSec == timeSec -
// lastSeconds) is part of the window. This pins the `<` in the skip
// condition: switching it to `<=` would drop the boundary sample and
// silently shift every tail average.
func TestSteadyStateIncludesExactCutoffSample(t *testing.T) {
	e := steadyEngine(t, []float64{1, 2, 3, 4, 5}, []float64{100, 100, 100, 40, 60}, 5)
	// cutoff = 5 - 2 = 3: samples at 3, 4, 5 → mean (100+40+60)/3.
	if got, want := e.Tenant(0).SteadyState(2).OpsPerSec, (100.0+40+60)/3; got != want {
		t.Fatalf("window 2: ops = %v, want %v (boundary sample at t=3 must be included)", got, want)
	}
	// Shrink the window past the boundary sample: only 4 and 5 remain.
	if got, want := e.Tenant(0).SteadyState(1.5).OpsPerSec, (40.0+60)/2; got != want {
		t.Fatalf("window 1.5: ops = %v, want %v", got, want)
	}
}

// A window longer than the elapsed time clamps to the whole trace —
// the caller sees every sample, warm-up included, rather than a cutoff
// sliding into negative time.
func TestSteadyStateClampsOversizedWindow(t *testing.T) {
	e := steadyEngine(t, []float64{1, 2, 3}, []float64{10, 20, 30}, 3)
	want := (10.0 + 20 + 30) / 3
	if got := e.Tenant(0).SteadyState(3).OpsPerSec; got != want {
		t.Fatalf("window == elapsed: ops = %v, want %v", got, want)
	}
	if got := e.Tenant(0).SteadyState(1e9).OpsPerSec; got != want {
		t.Fatalf("oversized window: ops = %v, want %v (must clamp to elapsed)", got, want)
	}
}

// Non-positive windows used to slide the cutoff to (or past) the end
// of the trace and silently average an unintended sample set; they are
// now rejected outright.
func TestSteadyStateRejectsNonPositiveWindow(t *testing.T) {
	e := steadyEngine(t, []float64{1, 2}, []float64{10, 20}, 2)
	for _, w := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SteadyState(%v) did not panic", w)
				}
			}()
			e.Tenant(0).SteadyState(w)
		}()
	}
}
