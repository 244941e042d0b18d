package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"colloid/internal/access"
	"colloid/internal/hemem"
	"colloid/internal/memsys"
	"colloid/internal/obs"
	"colloid/internal/pages"
	"colloid/internal/sim"
	"colloid/internal/stats"
	"colloid/internal/workloads"
)

// The traced run times each layer from outside, through its public
// functions: a wrapper around every sim.System, a timed WorkloadShift
// function, a replay of memsys.Topology.Solve on each quantum's inputs,
// and a benchmark-owned access.Sampler. Spans are kept in memory and
// written out when the run ends.

// Span layers.
const (
	layerQuantum = iota // one Step of the engine or cluster
	layerHemem          // layerHemem+kind: one wrapped System.Step
	layerTPP
	layerMemtis
	layerShift  // the workload's hot-set shift, inside a quantum
	layerSolve  // the Solve replay, after a quantum
	layerSample // the sampler probe, after a quantum
	numLayers
)

var layerNames = [numLayers]string{"quantum", "hemem", "tpp", "memtis", "workloads.shift", "memsys.solve", "access.sampler"}

// probeSamples is how many pages the sampler probe draws per quantum.
const probeSamples = 128

type span struct {
	parent  int32 // -1 for a root span
	layer   uint8
	tenant  int16 // -1 when the span is not one tenant's
	quantum int32
	start   int64 // ns since the traced run began
	end     int64
}

// countNames are the obs counters the per-layer metrics are built from,
// summed over tenant scopes.
var countNames = []string{
	"sim_quanta", "sampler_samples", "sampler_rebuilds", "tpp_hint_faults",
	"migrate_moves", "migrate_bytes", "migrate_throttled", "migrate_shared_throttled",
	"migrate_injected_failures", "ctrl_decisions", "ctrl_mode_transitions",
	"cluster_forced_demotions",
}

type kindAcc struct {
	stepNs  []float64
	totalNs int64
	alloc   uint64
}

type tracer struct {
	seed   uint64
	origin time.Time
	am     *allocMeter
	spans  []span

	// The episode being traced.
	inst     *instance
	reg      *obs.Registry
	quantum  int32 // quantum index across traced episodes
	cur      int32 // the open quantum span
	a0       uint64
	sysNs    int64
	sysAlloc uint64

	// Solve replay inputs, rebuilt each quantum from public accessors.
	shares     [][]float64
	scales     []float64 // inflight scale each system last set
	stepScales []float64 // the scales the current quantum solves with
	migLoad    []memsys.Load

	samplers []*access.Sampler
	versions []uint64 // weight version each probe sampler last saw

	// Accumulated over traced episodes.
	episodes   int
	quanta     int
	stepNs     []float64
	selfNs     []float64
	selfAlloc  uint64
	kinds      [numKinds]kindAcc
	iters      []float64
	solveNs    []float64
	solveAlloc uint64
	mismatches int
	overruns   int // quanta whose system spans exceed the quantum span
	sampleNs   []float64
	rebuildMs  []float64
	shiftMs    []float64
	counts     map[string]float64
	trackerB   int64
}

func newTracer(seed uint64) *tracer {
	return &tracer{seed: seed, origin: now(), am: newAllocMeter(), counts: map[string]float64{}}
}

// hooks gives the next episode's build a fresh obs registry, the system
// wrapper and the timed shift.
func (tr *tracer) hooks() hooks {
	tr.reg = obs.NewRegistry()
	return hooks{obs: tr.reg, wrap: tr.wrap, shift: tr.wrapShift}
}

// timedSystem is the timing wrapper around a sim.System. It also relays
// SetInflightScale, so the Solve replay knows the scale the engine will
// apply.
type timedSystem struct {
	inner  sim.System
	kind   int
	tenant int
	tr     *tracer
	set    func(float64) // the engine's SetInflightScale for this quantum
	relay  func(float64)
}

func (tr *tracer) wrap(i, kind int, s sim.System) sim.System {
	w := &timedSystem{inner: s, kind: kind, tenant: i, tr: tr}
	w.relay = func(scale float64) {
		if scale > 0 && scale <= 1 { // the engine ignores other values
			tr.scales[w.tenant] = scale
		}
		w.set(scale)
	}
	return w
}

func (w *timedSystem) Name() string { return w.inner.Name() }

func (w *timedSystem) Step(ctx *sim.Context) {
	if ctx.SetInflightScale != nil {
		w.set, ctx.SetInflightScale = ctx.SetInflightScale, w.relay
	}
	tr := w.tr
	a0 := tr.am.read()
	t0 := now()
	w.inner.Step(ctx)
	t1 := now()
	alloc := tr.am.read() - a0
	d := t1.Sub(t0).Nanoseconds()
	tr.record(layerHemem+w.kind, tr.cur, w.tenant, t0, t1)
	tr.sysNs += d
	tr.sysAlloc += alloc
	k := &tr.kinds[w.kind]
	k.stepNs = append(k.stepNs, float64(d))
	k.totalNs += d
	k.alloc += alloc
}

// wrapShift times tenant i's workload shift. The engine reads tier
// shares after its events fire, so the replay's shares are re-read here.
func (tr *tracer) wrapShift(i int, fn shiftFunc) shiftFunc {
	return func(as *pages.AddressSpace, rng *stats.RNG) {
		t0 := now()
		fn(as, rng)
		t1 := now()
		tr.record(layerShift, tr.cur, i, t0, t1)
		tr.shiftMs = append(tr.shiftMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
		tr.shares[i] = as.TierShareInto(tr.shares[i])
	}
}

func (tr *tracer) record(layer int, parent int32, tenant int, t0, t1 time.Time) {
	tr.spans = append(tr.spans, span{
		parent: parent, layer: uint8(layer), tenant: int16(tenant), quantum: tr.quantum,
		start: t0.Sub(tr.origin).Nanoseconds(), end: t1.Sub(tr.origin).Nanoseconds(),
	})
}

// begin attaches to a freshly built episode.
func (tr *tracer) begin(inst *instance) {
	n := inst.eng.NumTenants()
	tr.inst = inst
	tr.shares = make([][]float64, n)
	tr.scales = make([]float64, n)
	tr.stepScales = make([]float64, n)
	for i := range tr.scales {
		tr.scales[i] = 1
	}
	tr.migLoad = make([]memsys.Load, inst.eng.Topology().NumTiers())
	tr.samplers = make([]*access.Sampler, n)
	tr.versions = make([]uint64, n)
}

// before captures the quantum's Solve inputs, exactly as Step will
// assemble them, and opens the quantum span.
func (tr *tracer) before() {
	e := tr.inst.eng
	for t := range tr.migLoad {
		tr.migLoad[t] = memsys.Load{}
	}
	for i := 0; i < e.NumTenants(); i++ {
		h := e.Tenant(i)
		tr.shares[i] = h.AS().TierShareInto(tr.shares[i])
		for t, l := range h.Migrator().TrafficLoad() {
			tr.migLoad[t] = tr.migLoad[t].Add(l)
		}
	}
	copy(tr.stepScales, tr.scales)
	tr.cur = int32(len(tr.spans))
	tr.spans = append(tr.spans, span{parent: -1, layer: layerQuantum, tenant: -1, quantum: tr.quantum})
	tr.sysNs, tr.sysAlloc = 0, 0
	tr.a0 = tr.am.read()
}

// after closes the quantum span, then runs the Solve replay and the
// sampler probe outside it.
func (tr *tracer) after(start time.Time, d time.Duration, err error) {
	alloc := tr.am.read() - tr.a0
	sp := &tr.spans[tr.cur]
	sp.start = start.Sub(tr.origin).Nanoseconds()
	sp.end = sp.start + d.Nanoseconds()
	if err == nil {
		self := d.Nanoseconds() - tr.sysNs
		if self < 0 {
			tr.overruns++
		}
		tr.quanta++
		tr.stepNs = append(tr.stepNs, float64(d.Nanoseconds()))
		tr.selfNs = append(tr.selfNs, float64(self))
		tr.selfAlloc += alloc - tr.sysAlloc
		eq := tr.inst.eng.LastEquilibrium()
		tr.iters = append(tr.iters, float64(eq.Iterations))
		tr.replay(eq)
		tr.probe()
	}
	tr.quantum++
}

// replay re-solves the quantum from the captured inputs and counts a
// mismatch unless the result equals the engine's bit for bit.
func (tr *tracer) replay(want *memsys.Equilibrium) {
	e := tr.inst.eng
	n := e.NumTenants()
	srcs := make([]memsys.Source, 0, n+1)
	for i := 0; i < n; i++ {
		src := e.Tenant(i).Profile().Source(tr.shares[i])
		src.Inflight *= tr.stepScales[i]
		srcs = append(srcs, src)
	}
	srcs = append(srcs, workloads.Antagonist{Cores: e.AntagonistCores()}.Source(e.Topology().NumTiers()))
	a0 := tr.am.read()
	t0 := now()
	got, err := e.Topology().Solve(srcs, tr.migLoad, memsys.SolveOptions{})
	t1 := now()
	tr.solveAlloc += tr.am.read() - a0
	tr.record(layerSolve, -1, -1, t0, t1)
	tr.solveNs = append(tr.solveNs, float64(t1.Sub(t0).Nanoseconds()))
	if err != nil || !sameEquilibrium(got, want) {
		tr.mismatches++
	}
}

func sameEquilibrium(a, b *memsys.Equilibrium) bool {
	if a.Iterations != b.Iterations || len(a.Sources) != len(b.Sources) || len(a.TierLoad) != len(b.TierLoad) {
		return false
	}
	for t := range a.TierLoad {
		if !sameBits([]float64{a.TierLoad[t].SeqBytes, a.TierLoad[t].RandBytes}, []float64{b.TierLoad[t].SeqBytes, b.TierLoad[t].RandBytes}) {
			return false
		}
	}
	for i := range a.Sources {
		sa, sb := a.Sources[i], b.Sources[i]
		if !sameBits([]float64{sa.RequestRate, sa.AvgLatencyNs}, []float64{sb.RequestRate, sb.AvgLatencyNs}) || !sameBits(sa.TierRate, sb.TierRate) {
			return false
		}
	}
	return sameBits(a.LatencyNs, b.LatencyNs) && sameBits(a.TierReadRate, b.TierReadRate)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// probe draws probeSamples pages from one tenant (round robin) with a
// benchmark-owned sampler, timing a CDF rebuild separately whenever the
// tenant's weights changed since the sampler last looked.
func (tr *tracer) probe() {
	e := tr.inst.eng
	i := int(tr.quantum) % e.NumTenants()
	h := e.Tenant(i)
	as := h.AS()
	start := now()
	t0 := start
	if tr.samplers[i] == nil || tr.versions[i] != as.Version() {
		if tr.samplers[i] == nil {
			tr.samplers[i] = access.NewSampler(as, stats.NewRNG(tr.seed).Fork("perfbench-probe:"+h.Name()))
		}
		tr.samplers[i].Sample() // the first draw after a weight change rebuilds the CDF
		t1 := now()
		tr.rebuildMs = append(tr.rebuildMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
		tr.versions[i] = as.Version()
		t0 = t1
	}
	for k := 0; k < probeSamples; k++ {
		tr.samplers[i].Sample()
	}
	t1 := now()
	tr.sampleNs = append(tr.sampleNs, float64(t1.Sub(t0).Nanoseconds())/probeSamples)
	tr.record(layerSample, -1, i, start, t1)
}

// end folds the episode's obs counters and tracker footprint into the
// run's totals.
func (tr *tracer) end() {
	tr.episodes++
	vals := tr.reg.Values()
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		name := k[strings.LastIndexByte(k, '.')+1:]
		for _, want := range countNames {
			if name == want {
				tr.counts[name] += vals[k]
			}
		}
	}
	tr.trackerB = 0
	for _, s := range tr.inst.systems {
		if hs, ok := s.(*hemem.System); ok {
			tr.trackerB += hs.Stats().TrackerBytes
		}
	}
}

// perEpisode and perQuantum normalize a summed counter.
func (tr *tracer) perEpisode(name string) float64 { return tr.counts[name] / float64(tr.episodes) }
func (tr *tracer) perQuantum(name string) float64 { return tr.counts[name] / float64(tr.quanta) }

// tracedRun steps one untraced reference episode, then traced episodes
// until seconds have passed and at least minTimedQuanta quanta are traced,
// and reports the per-layer metrics.
func tracedRun(w workload, seed uint64, seconds float64, spansPath, host string, out io.Writer) (*result, error) {
	start := now()
	ref, _, err := runEpisode(w, w.quanta, seed, nil, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer(seed)
	var eps []*episode
	for len(eps) == 0 || tr.quanta < minTimedQuanta || now().Sub(start).Seconds() < seconds {
		ep, _, err := runEpisode(w, w.quanta, seed, tr, nil)
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
		runtime.GC()
	}
	res := &result{Metrics: map[string]metric{}, Attempted: ref.attempted, Failed: ref.failed}
	for _, ep := range eps {
		res.Attempted += ep.attempted
		res.Failed += ep.failed
	}
	ok := outputCheck(out, append([]*episode{ref}, eps...))
	if tr.mismatches != 0 || tr.overruns != 0 || int(tr.counts["sim_quanta"]) != tr.quanta {
		fmt.Fprintf(out, "check: replay mismatches=%d span overruns=%d sim_quanta=%v traced quanta=%d\n",
			tr.mismatches, tr.overruns, tr.counts["sim_quanta"], tr.quanta)
		ok = false
	}
	res.Correct = ok
	if err := tr.report(res, out, ref); err != nil {
		return nil, err
	}
	tr.printSelfTimes(out)
	if err := tr.writeSpans(spansPath, fmt.Sprintf("workload=%s seed=%d host: %s", w.name, seed, host)); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.spans), spansPath)
	return res, nil
}

// report adds every per-layer metric to res.
func (tr *tracer) report(res *result, out io.Writer, ref *episode) error {
	type m struct {
		name string
		v    float64
		unit string
		err  error
	}
	var ms []m
	pct := func(xs []float64, p, scale float64) (float64, error) {
		if len(xs) == 0 {
			return 0, nil // the layer is absent from this workload
		}
		v, err := percentile(xs, p)
		return v * scale, err
	}
	var stepTotal float64
	for _, ns := range tr.stepNs {
		stepTotal += ns
	}
	for k := 0; k < numKinds; k++ {
		acc := &tr.kinds[k]
		name := kindNames[k]
		p50, err50 := pct(acc.stepNs, 0.50, 1e-3)
		p99, err99 := pct(acc.stepNs, 0.99, 1e-3)
		var perStep float64
		if len(acc.stepNs) > 0 {
			perStep = float64(acc.alloc) / float64(len(acc.stepNs)) / 1024
		}
		ms = append(ms,
			m{name + ".step_us_p50", p50, "us", err50},
			m{name + ".step_us_p99", p99, "us", err99},
			m{name + ".busy_frac", float64(acc.totalNs) / stepTotal, "frac", nil},
			m{name + ".alloc_kib_per_step", perStep, "KiB", nil})
	}
	selfP50, errSelf := pct(tr.selfNs, 0.50, 1e-3)
	itP50, errIt50 := pct(tr.iters, 0.50, 1)
	itP99, errIt99 := pct(tr.iters, 0.99, 1)
	var itMax float64
	for _, it := range tr.iters {
		itMax = math.Max(itMax, it)
	}
	solveP50, errSolve := pct(tr.solveNs, 0.50, 1e-3)
	simSec := float64(tr.quanta) * quantumSec
	moves := tr.counts["migrate_moves"]
	attempts := moves + tr.counts["migrate_throttled"] + tr.counts["migrate_injected_failures"]
	accept := 0.0
	if attempts > 0 {
		accept = moves / attempts
	}
	refP50, errRef := percentile(ref.stepNs, 0.50)
	stepP50, errStep := percentile(tr.stepNs, 0.50)
	ms = append(ms,
		m{"sim.self_us_p50", selfP50, "us", errSelf},
		m{"sim.self_alloc_kib_per_quantum", float64(tr.selfAlloc) / float64(tr.quanta) / 1024, "KiB", nil},
		m{"memsys.solve_iters_p50", itP50, "count", errIt50},
		m{"memsys.solve_iters_p99", itP99, "count", errIt99},
		m{"memsys.solve_iters_max", itMax, "count", nil},
		m{"memsys.solve_us_p50", solveP50, "us", errSolve},
		m{"memsys.solve_alloc_b_per_call", float64(tr.solveAlloc) / float64(len(tr.solveNs)), "B", nil},
		m{"memsys.solve_replay_mismatches", float64(tr.mismatches), "count", nil},
		m{"access.sample_ns", median(tr.sampleNs), "ns", nil},
		m{"access.rebuild_ms", median(tr.rebuildMs), "ms", nil},
		m{"access.samples_per_quantum", tr.perQuantum("sampler_samples"), "count", nil},
		m{"access.sampler_rebuilds", tr.perEpisode("sampler_rebuilds"), "count", nil},
		m{"access.hint_faults_per_quantum", tr.perQuantum("tpp_hint_faults"), "count", nil},
		m{"workloads.shift_ms", median(tr.shiftMs), "ms", nil},
		m{"heat.tracker_mib", float64(tr.trackerB) / (1 << 20), "MiB", nil},
		m{"migrate.moves_per_sim_s", moves / simSec, "1/s", nil},
		m{"migrate.mib_per_sim_s", tr.counts["migrate_bytes"] / (1 << 20) / simSec, "MiB/s", nil},
		m{"migrate.throttled", tr.perEpisode("migrate_throttled"), "count", nil},
		m{"migrate.shared_throttled", tr.perEpisode("migrate_shared_throttled"), "count", nil},
		m{"migrate.accept_ratio", accept, "frac", nil},
		m{"core.decisions", tr.perEpisode("ctrl_decisions"), "count", nil},
		m{"core.mode_transitions", tr.perEpisode("ctrl_mode_transitions"), "count", nil},
		m{"tenant.forced_demotions_per_quantum", tr.perQuantum("cluster_forced_demotions"), "count", nil},
		m{"trace.overhead_frac", stepP50/refP50 - 1, "frac", firstErr(errRef, errStep)},
	)
	fmt.Fprintf(out, "traced: %d episodes, %d quanta; counts are per episode of %d quanta\n", tr.episodes, tr.quanta, tr.quanta/tr.episodes)
	for _, x := range ms {
		if x.err != nil {
			return fmt.Errorf("%s: %w", x.name, x.err)
		}
		if err := res.add(out, x.name, x.v, x.unit, ""); err != nil {
			return err
		}
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// printSelfTimes prints each layer's self time: its spans' durations
// minus the parts their child spans cover.
func (tr *tracer) printSelfTimes(out io.Writer) {
	child := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var self [numLayers]int64
	var count [numLayers]int
	var total int64
	for i, s := range tr.spans {
		self[s.layer] += s.end - s.start - child[i]
		count[s.layer]++
		if s.parent < 0 {
			total += s.end - s.start
		}
	}
	fmt.Fprintln(out, "self time by layer (share of all traced span time):")
	for l := 0; l < numLayers; l++ {
		fmt.Fprintf(out, "  %-16s %9d spans %12.3f ms %6.2f%%\n", layerNames[l], count[l], float64(self[l])/1e6, 100*float64(self[l])/float64(total))
	}
}

// writeSpans writes the span table as CSV.
func (tr *tracer) writeSpans(path, header string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "# perfbench spans %s\nid,parent,layer,tenant,quantum,start_ns,end_ns\n", header)
	for i, s := range tr.spans {
		fmt.Fprintf(bw, "%d,%d,%s,%d,%d,%d,%d\n", i, s.parent, layerNames[s.layer], s.tenant, s.quantum, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
