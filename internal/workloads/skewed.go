package workloads

import (
	"fmt"

	"colloid/internal/pages"
	"colloid/internal/stats"
)

// FromWeights installs an explicit weight vector (normalized), used to
// replay access profiles recorded from the real applications in
// internal/apps. Weights are matched to pages in ID order; if the
// profile has fewer entries than pages, remaining pages get zero
// weight; excess entries are folded uniformly over all pages.
type FromWeights struct {
	// Weights is the recorded per-page access histogram (any scale).
	Weights []float64
}

// Install normalizes and applies the weights.
func (f *FromWeights) Install(as *pages.AddressSpace, _ *stats.RNG) error {
	ids := as.LiveIDs()
	if len(ids) == 0 {
		return fmt.Errorf("workloads: empty address space")
	}
	if len(f.Weights) == 0 {
		return fmt.Errorf("workloads: empty weight profile")
	}
	total := 0.0
	for _, w := range f.Weights {
		if w < 0 {
			return fmt.Errorf("workloads: negative weight in profile")
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("workloads: profile has no mass")
	}
	n := len(f.Weights)
	if n > len(ids) {
		n = len(ids)
	}
	var overflow float64
	for i := n; i < len(f.Weights); i++ {
		overflow += f.Weights[i]
	}
	per := overflow / total / float64(len(ids))
	for i, id := range ids {
		w := per
		if i < n {
			w += f.Weights[i] / total
		}
		as.SetWeight(id, w)
	}
	return nil
}
