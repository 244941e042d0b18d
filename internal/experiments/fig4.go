package experiments

import (
	"fmt"
	"math"

	"colloid/internal/cha"
	"colloid/internal/core"
)

func init() {
	register("fig4", &Experiment{
		Title:    "Colloid watermark dynamics (p, pLo, pHi over time)",
		Arms:     fig4Arms,
		Assemble: fig4Assemble,
	})
}

// fig4Plant is the synthetic two-tier system used to trace Algorithm
// 2's watermark dynamics in isolation (the paper's Figure 4 is a
// conceptual illustration; this reproduces it with the real
// controller). Latencies are linear in p and cross at pStar.
type fig4Plant struct {
	counters *cha.Counters
	pStar    float64
	p        float64
}

func newFig4Plant(pStar, p0 float64) *fig4Plant {
	return &fig4Plant{counters: cha.NewCounters(2, 0, nil), pStar: pStar, p: p0}
}

func (pl *fig4Plant) step() cha.Snapshot {
	lD := 100 + 200*(pl.p-pl.pStar)
	lA := 100 - 50*(pl.p-pl.pStar)
	pl.counters.Advance(10e6, []float64{pl.p * 1e9, (1 - pl.p) * 1e9}, []float64{math.Max(lD, 10), math.Max(lA, 10)})
	return pl.counters.Read()
}

func (pl *fig4Plant) apply(d core.Decision) {
	const maxStep = 0.04 // per-quantum migration limit effect
	step := math.Min(d.DeltaP, maxStep)
	switch d.Mode {
	case core.Promote:
		pl.p += step
	case core.Demote:
		pl.p -= step
	}
	pl.p = math.Min(1, math.Max(0, pl.p))
}

// fig4Scenario is one watermark-dynamics trace.
type fig4Scenario struct {
	name    string
	pStar0  float64
	p0      float64
	disturb func(pl *fig4Plant) // applied at quantum 60
}

func fig4Scenarios() []fig4Scenario {
	return []fig4Scenario{
		{"a-static", 0.4, 0.95, nil},
		{"b-p-jump", 0.4, 0.95, func(pl *fig4Plant) { pl.p = 0.05 }},
		{"c-pstar-jump", 0.3, 0.95, func(pl *fig4Plant) { pl.pStar = 0.8 }},
	}
}

// fig4ArmResult is one scenario's trace rows plus its convergence
// warning (empty when the scenario converged).
type fig4ArmResult struct {
	rows [][]string
	warn string
}

// Figure 4: the evolution of p, pLo and pHi under (a) a static
// workload, (b) an abrupt jump in p, and (c) an abrupt shift of the
// equilibrium point pStar, demonstrating convergence and the epsilon
// watermark reset.
//
// Arm layout: one arm per scenario, in fig4Scenarios order.
func fig4Arms(o Options) ([]Arm, error) {
	var arms []Arm
	quanta := int(o.scale(240, 160))
	for _, sc := range fig4Scenarios() {
		arms = append(arms, Arm{Name: sc.name, Run: func(ArmContext) (any, error) {
			ctrl := core.NewController(2, core.Options{Epsilon: 0.01, Delta: 0.05})
			pl := newFig4Plant(sc.pStar0, sc.p0)
			res := fig4ArmResult{}
			for q := 0; q < quanta; q++ {
				if q == 60 && sc.disturb != nil {
					sc.disturb(pl)
				}
				d, ok := ctrl.Observe(pl.step())
				if !ok {
					continue
				}
				pl.apply(d)
				if q%20 == 0 || q == quanta-1 {
					lo, hi := ctrl.Watermarks()
					res.rows = append(res.rows, []string{
						sc.name, fmt.Sprintf("%d", q),
						f2(pl.p), f2(lo), f2(hi), f2(pl.pStar),
					})
				}
			}
			if math.Abs(pl.p-pl.pStar) > 0.08 {
				res.warn = fmt.Sprintf(
					"WARNING: scenario %s ended at p=%.2f, pStar=%.2f", sc.name, pl.p, pl.pStar)
			}
			return res, nil
		}})
	}
	return arms, nil
}

func fig4Assemble(o Options, results []any) (*Table, error) {
	t := &Table{
		ID:      "fig4",
		Title:   "Colloid watermark dynamics (p, pLo, pHi over time)",
		Columns: []string{"scenario", "quantum", "p", "pLo", "pHi", "pStar"},
		Notes: []string{
			"scenario (a): static workload converges to pStar",
			"scenario (b): p jumps at quantum 60; watermarks re-bracket",
			"scenario (c): pStar jumps at quantum 60; epsilon reset reopens the watermarks",
		},
	}
	for _, r := range results {
		res := r.(fig4ArmResult)
		t.Rows = append(t.Rows, res.rows...)
		if res.warn != "" {
			t.Notes = append(t.Notes, res.warn)
		}
	}
	return t, nil
}
