// Package badfloat is a lint fixture: float accumulations whose fold
// order is not deterministic, and one (nestedSliceSum) whose is.
package badfloat

import "colloid/internal/shard"

func mapSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // random iteration order
	}
	return sum
}

func shardSum(vals []float64) float64 {
	var total float64
	shard.Run(4, len(vals), func(s int) {
		total += vals[s] // completion order
	})
	return total
}

func goSum(vals []float64, done chan struct{}) float64 {
	var total float64
	for i := range vals {
		go func(x float64) {
			total -= x // completion order
			done <- struct{}{}
		}(vals[i])
	}
	return total
}

func perTierSum(m map[int]float64, tier map[int]int, perTier []float64) {
	for id, w := range m {
		perTier[tier[id]] += w // many keys fold into one slot
	}
}

func pointerSum(m map[string]float64, out *float64) {
	for _, w := range m {
		*out += w // random iteration order
	}
}

var literalSum = func(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // a package-level literal is walked too
	}
	return sum
}

func nestedSliceSum(m map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, vs := range m {
		var s float64
		for _, v := range vs {
			s += v // per-iteration local, folded in slice order
		}
		out[k] = s
	}
	return out
}

func spelledOutSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum = sum + v // the same fold, written out
	}
	return sum
}
