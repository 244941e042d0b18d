// Package oracle computes the paper's "best-case" reference placement
// (Section 2.1): manually place 0-100% of the hot set in the default
// tier in steps of 10, put the remaining hot pages in the alternate
// tier, fill leftover default-tier capacity with randomly chosen cold
// pages, and report the placement with the highest steady-state
// throughput. This is the mbind-based sweep the paper compares every
// system against.
package oracle

import (
	"fmt"

	"colloid/internal/memsys"
	"colloid/internal/pages"
	"colloid/internal/sim"
	"colloid/internal/stats"
)

// Point is one arm of the sweep.
type Point struct {
	// HotFraction is the fraction of the hot set placed in the default
	// tier.
	HotFraction float64
	// OpsPerSec is the steady-state application throughput.
	OpsPerSec float64
	// LatencyNs is per-tier loaded latency.
	LatencyNs []float64
	// DefaultShare is the app's request share served by the default
	// tier (p).
	DefaultShare float64
	// AppBytesPerSec is the app's per-tier bandwidth (the MBM view).
	AppBytesPerSec []float64
}

// Result is the full sweep.
type Result struct {
	// Best is the highest-throughput point.
	Best Point
	// Sweep holds every point in HotFraction order.
	Sweep []Point
}

// Config parameterizes the sweep.
type Config struct {
	// Sim is the base simulation config; the oracle runs it without a
	// tiering system at each manual placement. Its Workload (required)
	// installs the weights.
	Sim sim.Config
	// IsHot identifies the installed workload's hot set (required), the
	// prerequisite for the manual sweep.
	IsHot func(pages.PageID) bool
	// Steps is the number of sweep arms minus one (default 10: 0%,
	// 10%, ..., 100%).
	Steps int
	// SettleSec is how long each arm runs before measuring (default
	// 3 s; placement is static so the equilibrium is immediate and the
	// run only needs to outlast CHA priming).
	SettleSec float64
}

// BestCase runs the sweep and returns the result.
func BestCase(cfg Config) (*Result, error) {
	if cfg.Sim.Workload == nil || cfg.IsHot == nil {
		return nil, fmt.Errorf("oracle: workload and hot-set predicate required")
	}
	steps := cfg.Steps
	if steps <= 0 {
		steps = 10
	}
	settle := cfg.SettleSec
	if settle <= 0 {
		settle = 3
	}
	res := &Result{}
	for i := 0; i <= steps; i++ {
		frac := float64(i) / float64(steps)
		pt, err := runArm(cfg, frac, settle)
		if err != nil {
			return nil, fmt.Errorf("oracle: arm %.0f%%: %w", frac*100, err)
		}
		res.Sweep = append(res.Sweep, pt)
		if pt.OpsPerSec > res.Best.OpsPerSec {
			res.Best = pt
		}
	}
	return res, nil
}

func runArm(cfg Config, hotFraction, settle float64) (Point, error) {
	e, err := sim.New(cfg.Sim)
	if err != nil {
		return Point{}, err
	}
	h := e.Tenant(0)
	if err := Place(h.AS(), cfg.IsHot, hotFraction, h.WorkloadRNG()); err != nil {
		return Point{}, err
	}
	if err := e.Run(settle); err != nil {
		return Point{}, err
	}
	st := e.Tenant(0).SteadyState(settle / 2)
	return Point{
		HotFraction:    hotFraction,
		OpsPerSec:      st.OpsPerSec,
		LatencyNs:      st.LatencyNs,
		DefaultShare:   h.AS().DefaultShare(),
		AppBytesPerSec: st.AppBytesPerSec,
	}, nil
}

// Place arranges the address space manually: hotFraction of the hot
// set in the default tier, the rest of the hot set in the first
// alternate tier, and remaining default capacity filled with randomly
// chosen cold pages. Pages that do not fit anywhere preferred spill to
// successive alternate tiers.
func Place(as *pages.AddressSpace, isHot func(pages.PageID) bool, hotFraction float64, rng *stats.RNG) error {
	if hotFraction < 0 || hotFraction > 1 {
		return fmt.Errorf("oracle: hot fraction %v out of [0,1]", hotFraction)
	}
	var hot, cold []pages.PageID
	as.ForEachLive(func(p pages.Page) {
		if isHot(p.ID) {
			hot = append(hot, p.ID)
		} else {
			cold = append(cold, p.ID)
		}
	})
	nHotDefault := int(hotFraction*float64(len(hot)) + 0.5)

	// Empty the default tier first so capacity checks cannot interfere
	// with the target arrangement: push everything to alternates.
	evict := func(id pages.PageID) error {
		for t := 1; t < as.NumTiers(); t++ {
			if err := as.Move(id, memsys.TierID(t)); err == nil {
				return nil
			}
		}
		return fmt.Errorf("oracle: no alternate capacity while evicting page %d", id)
	}
	for _, id := range append(append([]pages.PageID{}, hot...), cold...) {
		if as.Tier(id) == memsys.DefaultTier {
			if err := evict(id); err != nil {
				return err
			}
		}
	}

	// Chosen hot pages into the default tier.
	rng.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	for i := 0; i < nHotDefault; i++ {
		if err := as.Move(hot[i], memsys.DefaultTier); err != nil {
			return fmt.Errorf("oracle: placing hot page: %w", err)
		}
	}
	// Random cold pages fill the rest of the default tier.
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	for _, id := range cold {
		if as.FreeBytes(memsys.DefaultTier) < as.PageBytes() {
			break
		}
		if err := as.Move(id, memsys.DefaultTier); err != nil {
			return fmt.Errorf("oracle: filling with cold page: %w", err)
		}
	}
	return nil
}
