// Package shard is the deterministic fan-out primitive behind the
// sharded per-quantum pipeline. The design rule that makes parallelism
// safe under the repo's bit-identical determinism contract is:
//
//   - The *logical* decomposition is fixed: work is always cut into
//     DefaultShards contiguous index ranges, regardless of how many
//     workers execute them. Changing the worker count only changes
//     which goroutine runs a shard, never the per-shard arithmetic.
//   - Results are merged with an ordered reduce: callers combine
//     per-shard partials strictly in shard index order, so floating
//     point sums associate the same way at every worker count.
//   - Randomness is per-shard: a shard that needs draws uses its own
//     stream, derived with stats.RNG.Split by shard index before the
//     fan-out, never sharing a parent RNG across goroutines.
//
// Under those three rules, a pipeline stage produces bit-identical
// output for W = 1 and W = N, which is what golden_trace_test.go pins.
package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultShards is the fixed logical shard count. It is deliberately a
// constant — not runtime.NumCPU() — because the shard boundaries feed
// the ordered reduce and therefore the golden checksums. 16 shards keep
// per-shard ranges large enough to amortize dispatch at 10^4 pages
// while exposing enough slack for 8+ workers to load-balance.
const DefaultShards = 16

// Plan cuts n items into Shards contiguous ranges. The zero Plan is
// not useful; construct with NewPlan.
type Plan struct {
	N      int
	Shards int
}

// NewPlan returns the canonical fixed-shard decomposition of n items.
func NewPlan(n int) Plan {
	if n < 0 {
		panic(fmt.Sprintf("shard: NewPlan of negative size %d", n))
	}
	return Plan{N: n, Shards: DefaultShards}
}

// Range returns the half-open index range [lo, hi) owned by shard s.
// Ranges are contiguous, cover [0, N) exactly, and differ in size by at
// most one item. Empty ranges are legal (N < Shards).
func (p Plan) Range(s int) (lo, hi int) {
	if s < 0 || s >= p.Shards {
		panic(fmt.Sprintf("shard: Range of shard %d outside [0,%d)", s, p.Shards))
	}
	return s * p.N / p.Shards, (s + 1) * p.N / p.Shards
}

// Run executes fn(s) for every shard s in [0, shards). With workers <= 1
// the shards run inline, sequentially, in index order — the zero-cost
// serial path the engine defaults to. With more workers, min(workers,
// shards) goroutines pull shard indices from a shared counter; fn must
// therefore only write shard-local state (per-shard partials, disjoint
// slice ranges). Run returns after every shard completes. A panic in
// any shard is re-raised on the caller's goroutine.
func Run(workers, shards int, fn func(s int)) {
	if shards <= 0 {
		return
	}
	if workers <= 1 || shards == 1 {
		for s := 0; s < shards; s++ {
			fn(s)
		}
		return
	}
	if workers > shards {
		workers = shards
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	next.Store(-1)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r //colloid:allow gocapture mutex-guarded panic replay; re-raised after the join, never a result
					}
					panicMu.Unlock()
				}
			}()
			for {
				s := int(next.Add(1))
				if s >= shards {
					return
				}
				fn(s)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
