package integration

import (
	"testing"

	"colloid/internal/core"
	"colloid/internal/hemem"
	"colloid/internal/memsys"
	"colloid/internal/obs"
	scn "colloid/internal/scenario"
	"colloid/internal/sim"
	"colloid/internal/workloads"
)

// runScenario runs GUPS for seconds with the given scenario, tracing
// fault events; sys nil means static placement.
func runScenario(t *testing.T, sys sim.System, s *scn.Scenario, seconds float64, seed uint64) (*sim.Engine, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	reg.EnableTrace(0)
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	g := workloads.DefaultGUPS()
	opts := []sim.Option{sim.WithScenario(s)}
	if sys != nil {
		opts = append(opts, sim.WithSystem(sys))
	}
	e, err := sim.New(sim.Config{
		Topology:        topo,
		WorkingSetBytes: g.WorkingSetBytes,
		Profile:         g.Profile(),
		Workload:        g,
		Seed:            seed,
		Obs:             reg,
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(seconds); err != nil {
		t.Fatal(err)
	}
	return e, reg
}

// appLatency is the request-weighted latency the application sees.
func appLatency(st sim.Steady) float64 {
	var lat, rate float64
	for t := range st.LatencyNs {
		lat += st.AppShare[t] * st.LatencyNs[t]
		rate += st.AppShare[t]
	}
	if rate == 0 {
		return 0
	}
	return lat / rate
}

// TestCHADropoutControllerHoldsAndRecovers is the bounded-staleness
// acceptance criterion: during a counter outage the Colloid controller
// holds its last estimates (stale observes counted, one stale event per
// outage), and it recovers within 3 quanta of samples returning.
func TestCHADropoutControllerHoldsAndRecovers(t *testing.T) {
	s := &scn.Scenario{Name: "dropout", Events: []scn.Event{
		scn.CHADropout{AtSec: 5, ForSec: 1},
	}}
	sys := hemem.New(hemem.Config{Colloid: &core.Options{}})
	_, reg := runScenario(t, sys, s, 10, 31)

	if got := reg.Values()["ctrl_stale_holds"]; got == 0 {
		t.Fatal("controller recorded no stale holds through the outage")
	}
	var staleAt, restoreAt, recoveredAt float64 = -1, -1, -1
	var staleObserves float64
	for _, ev := range reg.Events() {
		switch ev.Kind {
		case obs.EvCounterStale:
			if staleAt < 0 {
				staleAt = ev.TimeSec
			}
		case obs.EvCHARestore:
			restoreAt = ev.TimeSec
		case obs.EvCounterRecovered:
			if recoveredAt < 0 {
				recoveredAt = ev.TimeSec
				for _, f := range ev.Fields {
					if f.Key == "stale_observes" {
						staleObserves = f.Val
					}
				}
			}
		}
	}
	if staleAt < 0 {
		t.Fatal("no counter_stale event emitted during the outage")
	}
	if restoreAt < 0 || recoveredAt < 0 {
		t.Fatalf("recovery events missing: cha_restore=%v counter_recovered=%v", restoreAt, recoveredAt)
	}
	// Recovery within 3 quanta (10 ms each) of samples returning.
	if recoveredAt < restoreAt || recoveredAt > restoreAt+3*0.01+1e-9 {
		t.Fatalf("controller recovered at %vs, samples returned at %vs; want within 3 quanta", recoveredAt, restoreAt)
	}
	if staleObserves == 0 {
		t.Fatal("counter_recovered reports zero stale observes")
	}
}

// TestTierDegradeColloidBeatsStatic is the adaptivity acceptance
// criterion: under a persistent 3x latency degradation of the default
// tier, Colloid rebalances toward the now-faster alternate tier and
// converges to a lower steady-state application latency than a static
// placement that rides the brownout out.
func TestTierDegradeColloidBeatsStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	s := func() *scn.Scenario {
		return &scn.Scenario{Name: "persistent-brownout", Events: []scn.Event{
			scn.TierDegrade{AtSec: 10, Tier: memsys.DefaultTier, LatencyFactor: 3, BandwidthFactor: 1},
		}}
	}
	static, _ := runScenario(t, nil, s(), 60, 32)
	colloid, _ := runScenario(t, hemem.New(hemem.Config{Colloid: &core.Options{}}), s(), 60, 32)

	sLat := appLatency(static.Tenant(0).SteadyState(15))
	cLat := appLatency(colloid.Tenant(0).SteadyState(15))
	if cLat >= sLat {
		t.Fatalf("colloid steady app latency %.0f ns not below static %.0f ns under brownout", cLat, sLat)
	}
	// And the throughput story matches: lower latency, higher ops.
	if colloid.Tenant(0).SteadyState(15).OpsPerSec <= static.Tenant(0).SteadyState(15).OpsPerSec {
		t.Fatalf("colloid ops %.0f not above static %.0f despite lower latency",
			colloid.Tenant(0).SteadyState(15).OpsPerSec, static.Tenant(0).SteadyState(15).OpsPerSec)
	}
}
