package shard

import (
	"sync/atomic"
	"testing"

	"colloid/internal/stats"
)

func TestPlanRangesPartition(t *testing.T) {
	for _, n := range []int{0, 1, 5, 16, 17, 1000, 1 << 20} {
		p := NewPlan(n)
		prev := 0
		for s := 0; s < p.Shards; s++ {
			lo, hi := p.Range(s)
			if lo != prev {
				t.Fatalf("n=%d shard %d: lo=%d, want %d (ranges must be contiguous)", n, s, lo, prev)
			}
			if hi < lo {
				t.Fatalf("n=%d shard %d: inverted range [%d,%d)", n, s, lo, hi)
			}
			if size := hi - lo; size > n/p.Shards+1 {
				t.Fatalf("n=%d shard %d: size %d exceeds balanced bound", n, s, size)
			}
			prev = hi
		}
		if prev != n {
			t.Fatalf("n=%d: ranges cover [0,%d), want [0,%d)", n, prev, n)
		}
	}
}

func TestRunCoversEveryShardAtAnyWorkerCount(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 7, 16, 100} {
		var hits [DefaultShards]atomic.Int64
		Run(workers, DefaultShards, func(s int) { hits[s].Add(1) })
		for s := range hits {
			if got := hits[s].Load(); got != 1 {
				t.Fatalf("workers=%d: shard %d ran %d times, want 1", workers, s, got)
			}
		}
	}
}

func TestRunSerialPathIsInOrder(t *testing.T) {
	var order []int
	Run(1, 5, func(s int) { order = append(order, s) })
	for i, s := range order {
		if s != i {
			t.Fatalf("serial Run out of order: got %v", order)
		}
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic in a shard was swallowed")
		}
	}()
	Run(4, DefaultShards, func(s int) {
		if s == 3 {
			panic("boom")
		}
	})
}

// Ordered reduce of per-shard float partials must not depend on the
// worker count — the core property the sharded pipeline relies on.
func TestOrderedReduceIsWorkerCountInvariant(t *testing.T) {
	const n = 12345
	vals := make([]float64, n)
	r := stats.NewRNG(7)
	for i := range vals {
		vals[i] = r.Float64()
	}
	sum := func(workers int) float64 {
		p := NewPlan(n)
		partial := make([]float64, p.Shards)
		Run(workers, p.Shards, func(s int) {
			lo, hi := p.Range(s)
			acc := 0.0
			for _, v := range vals[lo:hi] {
				acc += v
			}
			partial[s] = acc
		})
		total := 0.0
		for _, v := range partial {
			total += v
		}
		return total
	}
	want := sum(1)
	for _, w := range []int{2, 4, 7, 16} {
		if got := sum(w); got != want {
			t.Fatalf("workers=%d: sum %x differs from serial %x", w, got, want)
		}
	}
}
