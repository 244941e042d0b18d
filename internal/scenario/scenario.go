// Package scenario declares deterministic simulation timelines: ordered
// lists of typed events — contention steps, workload phase changes, tier
// brown-outs, counter-sample dropouts, migration-engine outages — that
// the sim engine compiles onto its event queue at construction. A
// scenario is pure data: it can be validated, inspected and replayed
// bit-identically, and the same scenario value drives every arm of an
// experiment that compares systems under identical disturbances.
//
// The package deliberately does not import the engine; the engine
// imports it. Experiments build Scenario values (or take a builtin via
// Builtin) and hand them to sim.New with sim.WithScenario.
package scenario

import (
	"errors"
	"fmt"
	"sort"

	"colloid/internal/memsys"
	"colloid/internal/migrate"
	"colloid/internal/pages"
	"colloid/internal/stats"
	"colloid/internal/workloads"
)

// Event is one timeline entry. Implementations are the exported typed
// events below; the engine type-switches over them when compiling.
type Event interface {
	// When returns the firing time in simulation seconds.
	When() float64
	// Kind returns a stable label for traces and error messages.
	Kind() string
	// Validate checks the event's parameters against the tier count.
	Validate(numTiers int) error
}

// AntagonistStep sets the contention generator to a new intensity
// (Section 2.1's 0x-3x scale) at AtSec. The step is instantaneous, like
// starting or killing antagonist threads.
type AntagonistStep struct {
	AtSec     float64
	Intensity workloads.Intensity
}

// When implements Event.
func (e AntagonistStep) When() float64 { return e.AtSec }

// Kind implements Event.
func (e AntagonistStep) Kind() string { return "antagonist_step" }

// Validate implements Event.
func (e AntagonistStep) Validate(int) error {
	if e.Intensity < 0 {
		return fmt.Errorf("scenario: antagonist_step at %gs: negative intensity %d", e.AtSec, e.Intensity)
	}
	return nil
}

// ProfileSwitch swaps the application traffic profile at AtSec (object
// size or phase changes that alter the closed-loop parameters without
// touching page weights).
type ProfileSwitch struct {
	AtSec   float64
	Profile workloads.Profile
}

// When implements Event.
func (e ProfileSwitch) When() float64 { return e.AtSec }

// Kind implements Event.
func (e ProfileSwitch) Kind() string { return "profile_switch" }

// Validate implements Event.
func (e ProfileSwitch) Validate(int) error {
	if e.Profile.Cores <= 0 || e.Profile.Inflight <= 0 {
		return fmt.Errorf("scenario: profile_switch at %gs: profile %q needs positive cores and inflight",
			e.AtSec, e.Profile.Name)
	}
	return nil
}

// WorkloadShift mutates page weights at AtSec through the engine's
// workload RNG stream — the Figure 9 hot-set shift is
// WorkloadShift{AtSec: t, Shift: gups.ShiftHotSet}. The shift draws
// from the tenant's workload stream, the one its install drew from, so
// a scenario-driven run is bit-identical to calling the shift on the
// engine's workload stream at the same quantum.
type WorkloadShift struct {
	AtSec float64
	Shift func(as *pages.AddressSpace, rng *stats.RNG)
}

// When implements Event.
func (e WorkloadShift) When() float64 { return e.AtSec }

// Kind implements Event.
func (e WorkloadShift) Kind() string { return "workload_shift" }

// Validate implements Event.
func (e WorkloadShift) Validate(int) error {
	if e.Shift == nil {
		return fmt.Errorf("scenario: workload_shift at %gs: nil shift function", e.AtSec)
	}
	return nil
}

// TierDegrade scales a tier's service characteristics at AtSec:
// unloaded latency multiplied by LatencyFactor (>= 1) and achievable
// bandwidth by BandwidthFactor (in (0, 1]); a brown-out such as a DIMM
// entering thermal throttling or a CXL switch congesting. Capacity is
// unchanged, so placements stay valid. The degradation persists until a
// TierRestore.
type TierDegrade struct {
	AtSec           float64
	Tier            memsys.TierID
	LatencyFactor   float64
	BandwidthFactor float64
}

// When implements Event.
func (e TierDegrade) When() float64 { return e.AtSec }

// Kind implements Event.
func (e TierDegrade) Kind() string { return "tier_degrade" }

// Validate implements Event.
func (e TierDegrade) Validate(numTiers int) error {
	if int(e.Tier) < 0 || int(e.Tier) >= numTiers {
		return fmt.Errorf("scenario: tier_degrade at %gs: tier %d out of range [0,%d)", e.AtSec, e.Tier, numTiers)
	}
	if e.LatencyFactor < 1 {
		return fmt.Errorf("scenario: tier_degrade at %gs: latency factor %g < 1", e.AtSec, e.LatencyFactor)
	}
	if e.BandwidthFactor <= 0 || e.BandwidthFactor > 1 {
		return fmt.Errorf("scenario: tier_degrade at %gs: bandwidth factor %g out of (0,1]", e.AtSec, e.BandwidthFactor)
	}
	return nil
}

// TierRestore returns a degraded tier to nominal at AtSec.
type TierRestore struct {
	AtSec float64
	Tier  memsys.TierID
}

// When implements Event.
func (e TierRestore) When() float64 { return e.AtSec }

// Kind implements Event.
func (e TierRestore) Kind() string { return "tier_restore" }

// Validate implements Event.
func (e TierRestore) Validate(numTiers int) error {
	if int(e.Tier) < 0 || int(e.Tier) >= numTiers {
		return fmt.Errorf("scenario: tier_restore at %gs: tier %d out of range [0,%d)", e.AtSec, e.Tier, numTiers)
	}
	return nil
}

// CHADropout suppresses counter sampling from AtSec for ForSec seconds:
// the PMU readout path goes dark and every quantum in the window is
// discarded, so controllers must hold their last estimates (bounded
// staleness) until samples return.
type CHADropout struct {
	AtSec  float64
	ForSec float64
}

// When implements Event.
func (e CHADropout) When() float64 { return e.AtSec }

// Kind implements Event.
func (e CHADropout) Kind() string { return "cha_dropout" }

// Validate implements Event.
func (e CHADropout) Validate(int) error {
	if e.ForSec <= 0 {
		return fmt.Errorf("scenario: cha_dropout at %gs: non-positive window %gs", e.AtSec, e.ForSec)
	}
	return nil
}

// MigrationStall makes the migration engine fail every move for Quanta
// engine quanta starting at AtSec. FaultStall rejects moves for free
// (migration thread descheduled); FaultFail burns budget and bandwidth
// on copies that are then discarded (failed transactional migrations).
// Systems retry naturally on later quanta against the budget those
// quanta accrue.
type MigrationStall struct {
	AtSec  float64
	Fault  migrate.FaultKind
	Quanta int
}

// When implements Event.
func (e MigrationStall) When() float64 { return e.AtSec }

// Kind implements Event.
func (e MigrationStall) Kind() string { return "migration_stall" }

// Validate implements Event.
func (e MigrationStall) Validate(int) error {
	if e.Quanta <= 0 {
		return fmt.Errorf("scenario: migration_stall at %gs: non-positive duration %d quanta", e.AtSec, e.Quanta)
	}
	if e.Fault != migrate.FaultStall && e.Fault != migrate.FaultFail {
		return fmt.Errorf("scenario: migration_stall at %gs: unknown fault kind %d", e.AtSec, e.Fault)
	}
	return nil
}

// Scenario is a named, ordered disturbance timeline.
type Scenario struct {
	// Name labels the scenario in experiment ids and traces.
	Name string
	// Events fire in time order; events with equal times fire in slice
	// order (the compile is a stable sort).
	Events []Event
}

// Validate checks every event against the tier count, joining all
// problems into one error.
func (s *Scenario) Validate(numTiers int) error {
	var errs []error
	if s.Name == "" {
		errs = append(errs, errors.New("scenario: name required"))
	}
	for i, ev := range s.Events {
		if ev == nil {
			errs = append(errs, fmt.Errorf("scenario: event %d is nil", i))
			continue
		}
		if ev.When() < 0 {
			errs = append(errs, fmt.Errorf("scenario: %s event %d at negative time %gs", ev.Kind(), i, ev.When()))
		}
		if err := ev.Validate(numTiers); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Sorted returns the events in firing order: ascending time, with equal
// times kept in slice order. The receiver is not modified.
func (s *Scenario) Sorted() []Event {
	out := append([]Event(nil), s.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].When() < out[j].When() })
	return out
}

// MutatesTopology reports whether any event changes tier
// characteristics; the engine clones the topology before installing
// such a scenario so arms sharing a Topology value stay independent.
func (s *Scenario) MutatesTopology() bool {
	for _, ev := range s.Events {
		switch ev.(type) {
		case TierDegrade, TierRestore:
			return true
		}
	}
	return false
}

// Horizon returns the time of the last scheduled effect, including the
// trailing edge of windowed events (a CHADropout ends at AtSec+ForSec).
// Runs shorter than the horizon silently skip the tail.
func (s *Scenario) Horizon() float64 {
	h := 0.0
	for _, ev := range s.Events {
		end := ev.When()
		if w, okay := ev.(CHADropout); okay {
			end += w.ForSec
		}
		if end > h {
			h = end
		}
	}
	return h
}
