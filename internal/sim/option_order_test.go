package sim

import (
	"math"
	"testing"

	"colloid/internal/scenario"
	"colloid/internal/workloads"
)

// Options are commutative: an engine built with WithSystem before
// WithScenario must be indistinguishable from one built the other way
// around, both before the scenario fires (Config's profile and
// intensity hold) and after (the ProfileSwitch and the AntagonistStep
// replace them).
func TestOptionOrderCommutesWithScenario(t *testing.T) {
	switched := smallProfile("switched")
	sw := &scenario.Scenario{Name: "switch", Events: []scenario.Event{
		scenario.ProfileSwitch{AtSec: 0.5, Profile: switched},
		scenario.AntagonistStep{AtSec: 0.5, Intensity: workloads.Intensity2x},
	}}
	build := func(opts ...Option) *Engine {
		t.Helper()
		e, err := New(Config{
			Topology:        smallTopo(),
			WorkingSetBytes: 60 * tPage,
			PageBytes:       tPage,
			Profile:         smallProfile("base"),
			Antagonist:      workloads.Intensity1x,
			Seed:            11,
		}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		installUniform(e.AS())
		return e
	}
	run := func(e *Engine) (pre, post Engine0State) {
		t.Helper()
		pre = Engine0State{Profile: e.Tenant(0).Profile().Name, Cores: e.AntagonistCores()}
		if err := e.Run(1.0); err != nil {
			t.Fatal(err)
		}
		post = Engine0State{Profile: e.Tenant(0).Profile().Name, Cores: e.AntagonistCores()}
		return pre, post
	}
	orders := map[string][]Option{
		"system-then-scenario": {WithSystem(nopSystem{}), WithScenario(sw)},
		"scenario-then-system": {WithScenario(sw), WithSystem(nopSystem{})},
	}
	var wantOps float64
	first := true
	for name, opts := range orders {
		e := build(opts...)
		pre, post := run(e)
		if pre.Profile != "base" || pre.Cores != workloads.Intensity1x.Cores() {
			t.Errorf("%s: initial state %+v, want profile \"base\" and %d cores", name, pre, workloads.Intensity1x.Cores())
		}
		if post.Profile != "switched" || post.Cores != workloads.Intensity2x.Cores() {
			t.Errorf("%s: post-scenario state %+v, want profile \"switched\" and %d cores", name, post, workloads.Intensity2x.Cores())
		}
		ops := e.Tenant(0).SteadyState(0.3).OpsPerSec
		if first {
			wantOps, first = ops, false
		} else if math.Abs(ops-wantOps) != 0 {
			t.Errorf("%s: ops %v differs from first order %v (options must commute bit-exactly)", name, ops, wantOps)
		}
	}
}

// Engine0State is the externally observable per-engine state the
// option-order test compares.
type Engine0State struct {
	Profile string
	Cores   int
}
