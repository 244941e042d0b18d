package memsys

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestSolveNoSources(t *testing.T) {
	tp := paperTopology(t)
	eq, err := tp.Solve(nil, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if eq.LatencyNs[0] != 70 || eq.LatencyNs[1] != 135 {
		t.Fatalf("idle latencies = %v", eq.LatencyNs)
	}
}

func TestSolveSingleSourceLittlesLaw(t *testing.T) {
	tp := paperTopology(t)
	src := GUPSSource(1.0)
	eq, err := tp.Solve([]Source{src}, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Closed loop: rate * latency = cores * inflight (Little's law over
	// the source's in-flight budget).
	got := eq.Sources[0].RequestRate * eq.Sources[0].AvgLatencyNs * 1e-9
	want := float64(src.Cores) * src.Inflight
	if math.Abs(got-want)/want > 1e-6 {
		t.Fatalf("rate*latency = %v, want %v", got, want)
	}
}

func TestSolveValidatesShares(t *testing.T) {
	tp := paperTopology(t)
	bad := GUPSSource(0.5)
	bad.TierShare = []float64{0.5, 0.2} // sums to 0.7
	if _, err := tp.Solve([]Source{bad}, nil, SolveOptions{}); err == nil {
		t.Fatal("bad tier shares accepted")
	}
	short := GUPSSource(0.5)
	short.TierShare = []float64{1}
	if _, err := tp.Solve([]Source{short}, nil, SolveOptions{}); err == nil {
		t.Fatal("short tier share slice accepted")
	}
}

func TestSolveValidatesExtraLoad(t *testing.T) {
	tp := paperTopology(t)
	if _, err := tp.Solve(nil, []Load{{}}, SolveOptions{}); err == nil {
		t.Fatal("short extraLoad accepted")
	}
}

func TestSolveExtraLoadRaisesLatency(t *testing.T) {
	tp := paperTopology(t)
	src := GUPSSource(0.9)
	base, err := tp.Solve([]Source{src}, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := tp.Solve([]Source{src}, []Load{{SeqBytes: 50e9}, {}}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.LatencyNs[0] <= base.LatencyNs[0] {
		t.Fatalf("extra load did not raise default tier latency: %v vs %v",
			loaded.LatencyNs[0], base.LatencyNs[0])
	}
	if loaded.Sources[0].RequestRate >= base.Sources[0].RequestRate {
		t.Fatal("extra load did not reduce closed-loop throughput")
	}
}

// Property: for any feasible placement p and antagonist intensity, the
// solver converges, latencies are at least unloaded, and the source's
// throughput matches its in-flight budget.
func TestSolveProperties(t *testing.T) {
	tp := paperTopology(t)
	f := func(pSeed uint16, antSeed uint8) bool {
		p := float64(pSeed) / math.MaxUint16
		ant := int(antSeed % 16)
		eq, err := tp.Solve([]Source{GUPSSource(p), AntagonistSource(ant)}, nil, SolveOptions{})
		if err != nil {
			return false
		}
		if eq.LatencyNs[0] < 70-1e-9 || eq.LatencyNs[1] < 135-1e-9 {
			return false
		}
		g := eq.Sources[0]
		budget := g.RequestRate * g.AvgLatencyNs * 1e-9
		return math.Abs(budget-GUPSCores*GUPSInflight) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: moving traffic toward the less-loaded tier reduces the
// loaded latency of the tier losing traffic.
func TestSolveShiftReducesSourceTierLatency(t *testing.T) {
	tp := paperTopology(t)
	solve := func(p float64) *Equilibrium {
		eq, err := tp.Solve([]Source{GUPSSource(p), AntagonistSource(10)}, nil, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return eq
	}
	high := solve(0.9)
	low := solve(0.3)
	if low.LatencyNs[0] >= high.LatencyNs[0] {
		t.Fatalf("reducing p did not reduce default tier latency: %v vs %v",
			low.LatencyNs[0], high.LatencyNs[0])
	}
	if low.LatencyNs[1] <= high.LatencyNs[1] {
		t.Fatalf("reducing p did not raise alternate tier latency: %v vs %v",
			low.LatencyNs[1], high.LatencyNs[1])
	}
}

func TestSolveThreeTiers(t *testing.T) {
	tp := MustTopology(DualSocketXeonDefault(), DualSocketXeonRemote(), CXLTier(256*GiB))
	src := Source{
		Name: "app", Cores: 8, Inflight: 4,
		TierShare:       []float64{0.5, 0.3, 0.2},
		WriteFraction:   0.5,
		BytesPerRequest: CachelineBytes,
	}
	eq, err := tp.Solve([]Source{src}, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(eq.LatencyNs) != 3 {
		t.Fatalf("latency slice len = %d", len(eq.LatencyNs))
	}
	for i, l := range eq.LatencyNs {
		if l < tp.Tier(TierID(i)).Config().UnloadedLatencyNs {
			t.Fatalf("tier %d latency %v below unloaded", i, l)
		}
	}
}

func TestSolveZeroCoreSourceIgnored(t *testing.T) {
	tp := paperTopology(t)
	eq, err := tp.Solve([]Source{AntagonistSource(0)}, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if eq.Sources[0].RequestRate != 0 {
		t.Fatalf("zero-core source has rate %v", eq.Sources[0].RequestRate)
	}
	if eq.LatencyNs[0] != 70 {
		t.Fatalf("idle latency = %v", eq.LatencyNs[0])
	}
}

func TestSolveTierReadRateConsistency(t *testing.T) {
	tp := paperTopology(t)
	eq, err := tp.Solve([]Source{GUPSSource(0.7), AntagonistSource(5)}, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for tier := 0; tier < 2; tier++ {
		var sum float64
		for _, s := range eq.Sources {
			sum += s.TierRate[tier]
		}
		// TierReadRate is computed from the last iteration's latencies,
		// which match the reported equilibrium to solver tolerance.
		if math.Abs(sum-eq.TierReadRate[tier])/math.Max(sum, 1) > 1e-3 {
			t.Fatalf("tier %d: per-source rates sum %v != tier rate %v", tier, sum, eq.TierReadRate[tier])
		}
	}
}

// At MaxIterations the solver settles on the half-step average and
// returns it without error, marked Capped; a converged solve is not.
func TestSolveMarksCappedEquilibrium(t *testing.T) {
	tp := paperTopology(t)
	srcs := []Source{GUPSSource(0.9), AntagonistSource(15)}
	capped, err := tp.Solve(srcs, nil, SolveOptions{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Capped || capped.Iterations != 3 {
		t.Fatalf("MaxIterations 2: Capped=%v Iterations=%d, want true and 3", capped.Capped, capped.Iterations)
	}
	full, err := tp.Solve(srcs, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Capped || full.Iterations <= 3 {
		t.Fatalf("default options: Capped=%v Iterations=%d, want a converged solve", full.Capped, full.Iterations)
	}
}

// exactResult renders every result field of eq with floats in exact
// hexadecimal, so two renderings are equal only when the fields are
// bit-identical (NaN payloads aside).
func exactResult(eq *Equilibrium) string {
	return fmt.Sprintf("iterations %d capped %v latency %x read rate %x load %x sources %x",
		eq.Iterations, eq.Capped, eq.LatencyNs, eq.TierReadRate, eq.TierLoad, eq.Sources)
}

// SolveInto keeps its equilibrium only when every input the iteration
// reads is unchanged: perturbing any one of them alone re-solves to
// exactly what a fresh Solve returns.
func TestSolveIntoReusesOnlyIdenticalInputs(t *testing.T) {
	type inputs struct {
		tp    *Topology
		srcs  []Source
		extra []Load
		opts  SolveOptions
	}
	base := func() inputs {
		return inputs{
			tp:    paperTopology(t),
			srcs:  []Source{GUPSSource(0.8), AntagonistSource(10)},
			extra: []Load{{SeqBytes: 1e9}, {RandBytes: 1e9}},
		}
	}
	cases := []struct {
		name   string
		change func(in *inputs)
	}{
		{"cores", func(in *inputs) { in.srcs[0].Cores++ }},
		{"inflight", func(in *inputs) { in.srcs[0].Inflight *= 0.5 }},
		{"tier share", func(in *inputs) { in.srcs[0].TierShare = []float64{0.7, 0.3} }},
		{"seq fraction", func(in *inputs) { in.srcs[0].SeqFraction = 0.5 }},
		{"write fraction", func(in *inputs) { in.srcs[0].WriteFraction = 0.25 }},
		{"bytes per request", func(in *inputs) { in.srcs[0].BytesPerRequest = 128 }},
		{"source count", func(in *inputs) { in.srcs = in.srcs[:1] }},
		{"extra seq load", func(in *inputs) { in.extra[0].SeqBytes = 2e9 }},
		{"extra rand load", func(in *inputs) { in.extra[1].RandBytes = 2e9 }},
		{"nil extra load", func(in *inputs) { in.extra = nil }},
		{"latency degradation", func(in *inputs) { mustDegrade(t, in.tp, 1, 2, 1) }},
		{"bandwidth degradation", func(in *inputs) { mustDegrade(t, in.tp, 0, 1, 0.5) }},
		{"max iterations", func(in *inputs) { in.opts.MaxIterations = 2 }},
		{"tolerance", func(in *inputs) { in.opts.ToleranceNs = 1 }},
		{"damping", func(in *inputs) { in.opts.Damping = 0.9 }},
		{"topology", func(in *inputs) { in.tp = in.tp.Clone() }},
		{"+0 to -0", func(in *inputs) { in.extra[0].RandBytes = math.Copysign(0, -1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := base()
			var eq Equilibrium
			if reused, err := in.tp.SolveInto(&eq, in.srcs, in.extra, in.opts); err != nil || reused {
				t.Fatalf("first solve: reused=%v err=%v", reused, err)
			}
			if reused, err := in.tp.SolveInto(&eq, in.srcs, in.extra, in.opts); err != nil || !reused {
				t.Fatalf("unchanged inputs: reused=%v err=%v, want a reuse", reused, err)
			}
			tc.change(&in)
			reused, err := in.tp.SolveInto(&eq, in.srcs, in.extra, in.opts)
			if err != nil || reused {
				t.Fatalf("changed inputs: reused=%v err=%v, want a re-solve", reused, err)
			}
			fresh, err := in.tp.Solve(in.srcs, in.extra, in.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := exactResult(&eq), exactResult(fresh); got != want {
				t.Fatalf("re-solve differs from a fresh Solve:\n got %s\nwant %s", got, want)
			}
		})
	}
}

func mustDegrade(t *testing.T, tp *Topology, id TierID, lat, bw float64) {
	t.Helper()
	if err := tp.Degrade(id, lat, bw); err != nil {
		t.Fatal(err)
	}
}

// A record that holds a NaN never matches, so NaN inputs always
// re-solve; an invalid call leaves the equilibrium as it was.
func TestSolveIntoNaNAndErrors(t *testing.T) {
	tp := paperTopology(t)
	src := GUPSSource(0.8)
	src.Inflight = math.NaN()
	var eq Equilibrium
	for i := 0; i < 2; i++ {
		if reused, err := tp.SolveInto(&eq, []Source{src}, nil, SolveOptions{}); err != nil || reused {
			t.Fatalf("NaN inflight, call %d: reused=%v err=%v, want a re-solve", i, reused, err)
		}
	}
	good := []Source{GUPSSource(0.8)}
	if _, err := tp.SolveInto(&eq, good, nil, SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	before, err := tp.Solve(good, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bad := GUPSSource(0.8)
	bad.TierShare = []float64{1}
	if _, err := tp.SolveInto(&eq, []Source{bad}, nil, SolveOptions{}); err == nil {
		t.Fatal("short tier share slice accepted")
	}
	if got, want := exactResult(&eq), exactResult(before); got != want {
		t.Fatalf("failed call changed the equilibrium:\n got %s\nwant %s", got, want)
	}
	if reused, err := tp.SolveInto(&eq, good, nil, SolveOptions{}); err != nil || !reused {
		t.Fatalf("after a failed call: reused=%v err=%v, want a reuse", reused, err)
	}
}

// Once warm, an Equilibrium is solved into without allocating, whether
// the inputs changed or not.
func TestSolveIntoAllocatesNothing(t *testing.T) {
	tp := paperTopology(t)
	srcs := []Source{GUPSSource(0.6), AntagonistSource(5)}
	shares := [2][]float64{{0.6, 0.4}, {0.7, 0.3}}
	extra := []Load{{SeqBytes: 1e9}, {SeqBytes: 1e9}}
	var eq Equilibrium
	flip := 0
	resolve := func() {
		flip ^= 1
		srcs[0].TierShare = shares[flip]
		if reused, err := tp.SolveInto(&eq, srcs, extra, SolveOptions{}); err != nil || reused {
			t.Fatalf("reused=%v err=%v, want a re-solve", reused, err)
		}
	}
	resolve()
	resolve()
	if a := testing.AllocsPerRun(20, resolve); a != 0 {
		t.Fatalf("re-solve into a warm equilibrium allocates %v times", a)
	}
	reuse := func() {
		if reused, err := tp.SolveInto(&eq, srcs, extra, SolveOptions{}); err != nil || !reused {
			t.Fatalf("reused=%v err=%v, want a reuse", reused, err)
		}
	}
	if a := testing.AllocsPerRun(20, reuse); a != 0 {
		t.Fatalf("reuse allocates %v times", a)
	}
}
