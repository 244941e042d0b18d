package memsys

import (
	"fmt"
	"math"
	"slices"
)

// Source is a closed-loop traffic source: a group of cores that each
// keep a bounded number of memory requests in flight (the Line Fill
// Buffer limit of Section 3.1). Its request rate is therefore not fixed
// but determined by the loaded latencies of the tiers it touches:
// per-core read throughput is Inflight * 64 / L_avg.
type Source struct {
	// Name labels the source in diagnostics.
	Name string
	// Cores is the number of cores driving this source.
	Cores int
	// Inflight is the average number of in-flight memory (read)
	// requests each core sustains. For random 64 B GUPS accesses this
	// is well below the LFB size; larger objects raise it via
	// prefetching (Figure 8: 2.82x higher for 4 KB objects).
	Inflight float64
	// TierShare[t] is the fraction of this source's memory requests
	// that are served by tier t (the sum of access probabilities of its
	// pages in that tier). Shares must sum to 1.
	TierShare []float64
	// SeqFraction is the fraction of this source's traffic that is
	// sequential (row-buffer/prefetch friendly); the rest is random.
	SeqFraction float64
	// WriteFraction is the fraction of operations that also produce a
	// writeback. Writebacks add offered bytes but are serviced
	// asynchronously, so they do not gate the closed loop directly.
	WriteFraction float64
	// BytesPerRequest is the data moved per demand read (one cacheline
	// unless the source models larger-grain transfers).
	BytesPerRequest float64
}

// validate checks source invariants against a tier count.
func (s *Source) validate(numTiers int) error {
	if s.Cores < 0 {
		return fmt.Errorf("memsys: source %q: negative cores", s.Name)
	}
	if s.Inflight < 0 {
		return fmt.Errorf("memsys: source %q: negative inflight", s.Name)
	}
	if len(s.TierShare) != numTiers {
		return fmt.Errorf("memsys: source %q: %d tier shares for %d tiers", s.Name, len(s.TierShare), numTiers)
	}
	sum := 0.0
	for _, p := range s.TierShare {
		if p < -1e-9 {
			return fmt.Errorf("memsys: source %q: negative tier share %v", s.Name, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 && s.Cores > 0 && s.Inflight > 0 {
		return fmt.Errorf("memsys: source %q: tier shares sum to %v, want 1", s.Name, sum)
	}
	if s.SeqFraction < 0 || s.SeqFraction > 1 {
		return fmt.Errorf("memsys: source %q: seq fraction %v out of [0,1]", s.Name, s.SeqFraction)
	}
	if s.WriteFraction < 0 {
		return fmt.Errorf("memsys: source %q: negative write fraction", s.Name)
	}
	if s.BytesPerRequest <= 0 {
		return fmt.Errorf("memsys: source %q: bytes per request must be positive", s.Name)
	}
	return nil
}

// SourceResult reports the equilibrium behaviour of one source.
type SourceResult struct {
	// RequestRate is demand reads per second issued by the source.
	RequestRate float64
	// AvgLatencyNs is the share-weighted average read latency seen.
	AvgLatencyNs float64
	// TierRate[t] is demand reads per second served by tier t.
	TierRate []float64
}

// Equilibrium is the fixed point of the closed-loop system for one
// quantum: per-tier loaded latencies and rates consistent with every
// source's bounded in-flight budget. It also records the inputs it was
// solved from, so SolveInto can keep it when the next call's inputs
// are the same. The zero value is ready for SolveInto; a copy shares
// its slices with the original, so solve into only one of them.
type Equilibrium struct {
	// LatencyNs[t] is the loaded read latency of tier t.
	LatencyNs []float64
	// TierLoad[t] is the total offered load (bytes/sec, reads plus
	// writebacks plus any extra load such as page migrations).
	TierLoad []Load
	// TierReadRate[t] is total demand reads/sec to tier t across
	// sources (excluding ExtraLoad, which models non-demand traffic).
	TierReadRate []float64
	// Sources holds per-source results, index-aligned with the input.
	Sources []SourceResult
	// Iterations is how many damped iterations the solver used; a
	// capped solve counts its closing half-step, so it reports
	// MaxIterations+1.
	Iterations int
	// Capped reports that the iteration reached MaxIterations without
	// converging, so the latencies are the half-step average described
	// at Solve.
	Capped bool

	// topo is the topology the recorded inputs were solved on (nil when
	// nothing reusable is recorded) and key holds the bits of the other
	// inputs (see solveKey). The next call builds its key in spare; the
	// two swap on every re-solve, so a warm Equilibrium never allocates.
	topo       *Topology
	key, spare []uint64
}

// SolveOptions tunes the fixed-point iteration.
type SolveOptions struct {
	// MaxIterations bounds the damped iteration count (default 5000;
	// each iteration is a handful of float ops per tier).
	MaxIterations int
	// ToleranceNs is the per-tier latency convergence threshold
	// (default 0.01 ns).
	ToleranceNs float64
	// Damping in (0,1] is the step fraction toward the new latency
	// estimate each iteration (default 0.35; lower is more stable for
	// steep queueing curves).
	Damping float64
}

func (o SolveOptions) withDefaults() SolveOptions {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 5000
	}
	if o.ToleranceNs <= 0 {
		o.ToleranceNs = 0.01
	}
	if o.Damping <= 0 || o.Damping > 1 {
		o.Damping = 0.35
	}
	return o
}

// Solve computes the closed-loop equilibrium: latencies L_t such that,
// when every source issues at rate Cores*Inflight/L_avg (its in-flight
// budget divided by the latency it experiences), the resulting offered
// load produces exactly those latencies. It is SolveInto on a fresh
// Equilibrium.
//
// extraLoad[t] is additional open-loop traffic charged to tier t (page
// migration traffic; it consumes bandwidth without being part of any
// source's closed loop). extraLoad may be nil.
//
// Existence/uniqueness intuition: each source's offered load is a
// decreasing function of latency while each tier's latency is an
// increasing function of load, so the composed map is monotone and the
// damped iteration converges; the solver halves its step whenever the
// update stops shrinking. In deep saturation the queueing curve is
// nearly vertical and the iteration can still end in a small limit
// cycle around the fixed point. If it has not converged after
// MaxIterations steps, the solver takes one half-step from the last
// estimate toward the model's response, which the cycle brackets,
// marks the result Capped and returns it without error. Solve returns
// an error only for invalid inputs.
func (tp *Topology) Solve(sources []Source, extraLoad []Load, opts SolveOptions) (*Equilibrium, error) {
	eq := new(Equilibrium)
	if _, err := tp.SolveInto(eq, sources, extraLoad, opts); err != nil {
		return nil, err
	}
	return eq, nil
}

// SolveInto solves like Solve, but into eq's own slices, growing them
// only when they are too short. eq records the topology and every
// input the iteration reads: each source's Cores, Inflight, TierShare,
// SeqFraction, WriteFraction and BytesPerRequest, extraLoad (nil
// records as zero load, which iterates identically), each tier's
// Degradation pair and the options. When the next call's inputs match
// that record bit for bit, SolveInto returns reused and leaves eq as it
// is, without iterating or allocating.
//
// The reuse is exact: the iteration reads nothing but the recorded
// inputs and the tiers' immutable configurations, so re-running it
// would write the same bits. Floats compare by math.Float64bits, so +0
// against -0 re-solves, and a record that holds a NaN never matches.
// On an error (invalid inputs) eq is left as it was.
func (tp *Topology) SolveInto(eq *Equilibrium, sources []Source, extraLoad []Load, opts SolveOptions) (reused bool, err error) {
	opts = opts.withDefaults()
	n := tp.NumTiers()
	for i := range sources {
		if err := sources[i].validate(n); err != nil {
			return false, err
		}
	}
	if extraLoad != nil && len(extraLoad) != n {
		return false, fmt.Errorf("memsys: extraLoad has %d entries for %d tiers", len(extraLoad), n)
	}
	key, exact := tp.solveKey(eq.spare[:0], sources, extraLoad, opts)
	if eq.topo == tp && slices.Equal(key, eq.key) {
		eq.spare = key
		return true, nil
	}
	eq.key, eq.spare = key, eq.key
	eq.topo = nil
	if exact {
		eq.topo = tp
	}
	tp.solve(eq, sources, extraLoad, opts)
	return false, nil
}

// solveKey appends to dst the bits of every input the iteration reads
// besides the tiers' immutable configurations: the options, each tier's
// degradation pair and extra load, then each source's parameters and
// shares. The topology fixes the tier count and validation fixes each
// share vector's length, so the key's length fixes the source count.
// exact is false when any input is NaN.
func (tp *Topology) solveKey(dst []uint64, sources []Source, extraLoad []Load, opts SolveOptions) (key []uint64, exact bool) {
	n := len(tp.tiers)
	if size := 3 + 4*n + len(sources)*(5+n); cap(dst) < size {
		dst = make([]uint64, 0, size)
	}
	nan := false
	bits := func(f float64) uint64 {
		nan = nan || f != f
		return math.Float64bits(f)
	}
	key = append(dst, uint64(opts.MaxIterations), bits(opts.ToleranceNs), bits(opts.Damping))
	for t, tier := range tp.tiers {
		var extra Load
		if extraLoad != nil {
			extra = extraLoad[t]
		}
		key = append(key, bits(tier.latFactor), bits(tier.bwFactor), bits(extra.SeqBytes), bits(extra.RandBytes))
	}
	for i := range sources {
		s := &sources[i]
		key = append(key, uint64(s.Cores), bits(s.Inflight), bits(s.SeqFraction), bits(s.WriteFraction), bits(s.BytesPerRequest))
		for _, p := range s.TierShare {
			key = append(key, bits(p))
		}
	}
	return key, !nan
}

// solve runs the damped fixed-point iteration on validated inputs and
// writes the equilibrium into eq's slices.
func (tp *Topology) solve(eq *Equilibrium, sources []Source, extraLoad []Load, opts SolveOptions) {
	n := tp.NumTiers()
	// Start from (possibly degraded) unloaded latencies.
	lat := grow(eq.LatencyNs, n)
	for t := 0; t < n; t++ {
		lat[t] = tp.tiers[t].UnloadedLatencyNs()
	}

	load := grow(eq.TierLoad, n)
	readRate := grow(eq.TierReadRate, n)
	// Adaptive damping: if the update stops shrinking the step, the
	// iteration is in a limit cycle around a steep region of the
	// queueing curve; halving the step restores contraction.
	damping := opts.Damping
	prevDelta := math.Inf(1)
	iter := 0
	for ; iter < opts.MaxIterations; iter++ {
		for t := range load {
			if extraLoad != nil {
				load[t] = extraLoad[t]
			} else {
				load[t] = Load{}
			}
			readRate[t] = 0
		}
		// Offered load at current latency estimate.
		for i := range sources {
			s := &sources[i]
			if s.Cores == 0 || s.Inflight == 0 {
				continue
			}
			avg := 0.0
			for t := 0; t < n; t++ {
				avg += s.TierShare[t] * lat[t]
			}
			if avg <= 0 {
				continue
			}
			// Requests/sec: in-flight budget over latency (ns -> s).
			rate := float64(s.Cores) * s.Inflight / (avg * 1e-9)
			bytesPerReq := s.BytesPerRequest * (1 + s.WriteFraction)
			for t := 0; t < n; t++ {
				b := rate * s.TierShare[t] * bytesPerReq
				load[t].SeqBytes += b * s.SeqFraction
				load[t].RandBytes += b * (1 - s.SeqFraction)
				readRate[t] += rate * s.TierShare[t]
			}
		}
		// Relax latencies toward the model's response.
		maxDelta := 0.0
		for t := 0; t < n; t++ {
			target := tp.tiers[t].LoadedLatencyNs(load[t])
			next := lat[t] + damping*(target-lat[t])
			if d := math.Abs(next - lat[t]); d > maxDelta {
				maxDelta = d
			}
			lat[t] = next
		}
		if maxDelta < opts.ToleranceNs {
			break
		}
		if maxDelta >= prevDelta*0.999 && damping > 0.005 {
			damping /= 2
		}
		prevDelta = maxDelta
	}
	capped := iter == opts.MaxIterations
	if capped {
		// The damped iteration is in a small limit cycle around the
		// fixed point (this happens only in deep saturation, where the
		// queueing curve is nearly vertical). The cycle brackets the
		// fixed point, so one more half-step toward the response lands
		// inside it; accept that as the equilibrium rather than
		// failing an entire experiment over a sub-nanosecond wobble.
		for t := 0; t < n; t++ {
			target := tp.tiers[t].LoadedLatencyNs(load[t])
			lat[t] = (lat[t] + target) / 2
		}
	}

	eq.LatencyNs, eq.TierLoad, eq.TierReadRate = lat, load, readRate
	eq.Iterations, eq.Capped = iter+1, capped
	eq.Sources = grow(eq.Sources, len(sources))
	for i := range sources {
		s := &sources[i]
		res := &eq.Sources[i]
		*res = SourceResult{TierRate: grow(res.TierRate, n)}
		clear(res.TierRate)
		if s.Cores > 0 && s.Inflight > 0 {
			avg := 0.0
			for t := 0; t < n; t++ {
				avg += s.TierShare[t] * lat[t]
			}
			res.AvgLatencyNs = avg
			res.RequestRate = float64(s.Cores) * s.Inflight / (avg * 1e-9)
			for t := 0; t < n; t++ {
				res.TierRate[t] = res.RequestRate * s.TierShare[t]
			}
		}
	}
}

// grow returns s resliced to length n, or a new slice when s is too
// short. The contents are the caller's to overwrite.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = make([]T, n)
	}
	return s[:n]
}
