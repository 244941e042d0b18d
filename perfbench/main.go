// Command perfbench is the repository benchmark: it times the real
// simulation engine (sim.Engine.Step and tenant.Cluster.Step, one worker,
// no obs registry) on fixed workloads and prints every end-to-end metric
// by name and unit, with a check of the simulated outputs. With -trace 1
// it runs the separate traced run instead and prints the per-layer
// metrics. README.md describes the workloads and metrics.
//
//	go build -o perfbench . && ./perfbench -workload paper-gups -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"colloid/internal/memsys"
	"colloid/internal/simtest"
)

func main() {
	// One P: the engine steps serially (Workers = 1), and with a single P
	// the collector's work lands in the measured step times instead of on
	// an idle second core, so an allocation costs the same on any host.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// A run times set-ups on their own before its first episode, each between
// two yardstick slices, so that setup_s is a median of many samples: at
// least minSetups, then more until setupBudgetSec of host time is spent
// or maxSetups are done.
const (
	minSetups      = 9
	maxSetups      = 200
	setupBudgetSec = 2.0
)

// minTimedQuanta is the fewest quanta a run steps, whatever its seconds,
// so that p99 has minTail samples beyond it.
const minTimedQuanta = 1000

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-gups, memtis-1m or cluster-100")
	seed := fs.Uint64("seed", 1, "input seed (the same seed builds the same inputs)")
	seconds := fs.Float64("seconds", 10, "host seconds to measure; whole episodes, at least one")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: the traced run's per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	host := fingerprint(1)
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%d quanta/episode=%d\n", w.name, *seed, *seconds, *trace, w.quanta)
	fmt.Fprintln(stdout, "host:", host)
	var res *result
	if *trace == 1 {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.csv", w.name, *seed))
		res, err = tracedRun(w, *seed, *seconds, path, host, stdout)
	} else {
		res, err = plainRun(w, *seed, *seconds, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// add records a metric and prints it on its own line; a NaN or infinite
// value (which JSON cannot carry) is an error.
func (r *result) add(out io.Writer, name string, v float64, unit, note string) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s is %v", name, v)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(out, "metric %-40s %14.6g %-8s %s\n", name, v, unit, note)
	return nil
}

// episode is one fixed-length stepping of a freshly built workload.
type episode struct {
	seed      uint64
	setupS    float64
	stepNs    []float64 // host time of each quantum that succeeded
	stepSec   float64
	normNs    []float64 // stepNs at the nominal host speed (with a yardstick)
	normSec   float64
	attempted int
	failed    int
	alloc     uint64 // heap bytes allocated while stepping
	digest    uint64
	modelMops float64
	checkErr  error
}

// runEpisode builds the workload and steps it for quanta quanta, or until
// a Step fails. A non-nil tracer attaches to the build and brackets every
// quantum. A non-nil yardstick runs its slices between steps and gives the
// normalised step times. The instance is returned so the caller decides
// how long the engine stays reachable.
func runEpisode(w workload, quanta int, seed uint64, tr *tracer, ys *yardstick) (*episode, *instance, error) {
	var h hooks
	if tr != nil {
		h = tr.hooks()
	}
	inst, setupS, err := timedBuild(w, seed, quanta, h)
	if err != nil {
		return nil, nil, err
	}
	ep := &episode{seed: seed, setupS: setupS, stepNs: make([]float64, 0, quanta)}
	if tr != nil {
		tr.begin(inst)
	}
	runtime.GC()
	am := newAllocMeter()
	var (
		before, sinceNs float64
		block           int // first step not yet normalised
		ysAlloc0        uint64
	)
	// normalise scales the steps since the last slice by the slices on
	// either side of them.
	normalise := func() {
		after := ys.slice()
		f := scale(before, after)
		for _, ns := range ep.stepNs[block:] {
			ep.normNs = append(ep.normNs, ns*f)
			ep.normSec += ns * f / 1e9
		}
		before, block, sinceNs = after, len(ep.stepNs), 0
	}
	if ys != nil {
		ep.normNs = make([]float64, 0, quanta)
		before = ys.slice()
		ysAlloc0 = ys.alloc
	}
	a0 := am.read()
	for q := 0; q < quanta; q++ {
		if tr != nil {
			tr.before()
		}
		start := now()
		err := inst.step()
		d := now().Sub(start)
		ep.attempted++
		if tr != nil {
			tr.after(start, d, err)
		}
		if err != nil {
			ep.failed++
			break
		}
		ns := float64(d.Nanoseconds())
		ep.stepNs = append(ep.stepNs, ns)
		ep.stepSec += d.Seconds()
		if sinceNs += ns; ys != nil && sinceNs >= yardstickEveryNs {
			normalise()
		}
	}
	if ys != nil && block < len(ep.stepNs) {
		normalise()
	}
	ep.alloc = am.read() - a0
	if ys != nil {
		ep.alloc -= ys.alloc - ysAlloc0
	}
	if tr != nil {
		tr.end()
	}
	ep.digest, ep.modelMops = digest(inst)
	ep.checkErr = checkPlacement(inst)
	return ep, inst, nil
}

// timedBuild builds the workload from a collected heap and returns the
// host seconds the build took.
func timedBuild(w workload, seed uint64, quanta int, h hooks) (*instance, float64, error) {
	runtime.GC()
	t0 := now()
	inst, err := w.build(seed, quanta, h)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: build: %w", w.name, err)
	}
	return inst, now().Sub(t0).Seconds(), nil
}

// digest folds every tenant's final placement and sample trace through
// simtest.Digest, and returns it with the modelled throughput: the sum
// over tenants of their mean sampled ops/s, in Mops/s.
func digest(inst *instance) (uint64, float64) {
	d := simtest.NewDigest()
	var mops float64
	for i := 0; i < inst.eng.NumTenants(); i++ {
		h := inst.eng.Tenant(i)
		d.Placement(h.AS())
		d.Samples(h.Samples())
		if ss := h.Samples(); len(ss) > 0 {
			var sum float64
			for _, s := range ss {
				sum += s.OpsPerSec
			}
			mops += sum / float64(len(ss))
		}
	}
	return d.Sum(), mops / 1e6
}

// checkPlacement verifies that every tenant's pages still add up to its
// working set and that no tier holds more than its capacity.
func checkPlacement(inst *instance) error {
	topo := inst.eng.Topology()
	used := make([]int64, topo.NumTiers())
	for i, wss := range inst.wss {
		as := inst.eng.Tenant(i).AS()
		var sum int64
		for t := range used {
			b := as.TierBytes(memsys.TierID(t))
			used[t] += b
			sum += b
		}
		if sum != wss {
			return fmt.Errorf("tenant %d holds %d bytes, working set is %d", i, sum, wss)
		}
	}
	for t, b := range used {
		if c := topo.Capacity(memsys.TierID(t)); b > c {
			return fmt.Errorf("tier %d holds %d bytes over its capacity %d", t, b, c)
		}
	}
	return nil
}

// bySeed groups eps by seed, in the order each seed first appears.
func bySeed(eps []*episode) [][]*episode {
	var groups [][]*episode
	at := map[uint64]int{}
	for _, ep := range eps {
		i, ok := at[ep.seed]
		if !ok {
			i = len(groups)
			at[ep.seed] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], ep)
	}
	return groups
}

// outputCheck compares each episode's outputs with those of the first
// episode of its seed: one seed must give one digest and one modelled
// throughput.
func outputCheck(out io.Writer, eps []*episode) bool {
	all := true
	for _, g := range bySeed(eps) {
		ref := g[0]
		ok := ref.modelMops > 0 && !math.IsInf(ref.modelMops, 0)
		for _, ep := range g {
			if ep.checkErr != nil {
				fmt.Fprintln(out, "check: placement:", ep.checkErr)
				ok = false
			}
			if ep.digest != ref.digest || ep.modelMops != ref.modelMops {
				fmt.Fprintf(out, "check: episode digest %016x model_mops %v differs from %016x %v\n", ep.digest, ep.modelMops, ref.digest, ref.modelMops)
				ok = false
			}
		}
		fmt.Fprintf(out, "check: seed=%d digest=%016x model_mops=%.9g episodes=%d ok=%v\n", ref.seed, ref.digest, ref.modelMops, len(g), ok)
		all = all && ok
	}
	return all
}

// timeStats returns the p50 and p99 in ns of the step times of eps, the
// simulated seconds per host second, and how many samples the percentiles
// rest on. Raw, the percentiles pool every step's host time; normalised,
// they are over positionMedians. The rate counts every step in full either
// way, so the collector's cost stays in it.
func timeStats(eps []*episode, norm bool) (p50, p99, rate float64, n int, err error) {
	var ns []float64
	var sec float64
	quanta := 0
	for _, ep := range eps {
		quanta += len(ep.stepNs)
		if norm {
			sec += ep.normSec
		} else {
			ns, sec = append(ns, ep.stepNs...), sec+ep.stepSec
		}
	}
	if norm {
		ns = positionMedians(eps)
	}
	if p50, err = percentile(ns, 0.50); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("quantum_ms_p50: %w", err)
	}
	if p99, err = percentile(ns, 0.99); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("quantum_ms_p99: %w", err)
	}
	return p50, p99, float64(quanta) * quantumSec / sec, len(ns), nil
}

// positionMedians returns, for each seed of eps and each quantum position,
// the median of that position's normalised times over the seed's episodes.
// Every episode of one seed does the same work at position q, so the
// median keeps that work's cost while it drops a passing spike that the
// host, or a collection that happened to start there, added in one
// episode.
func positionMedians(eps []*episode) []float64 {
	var ms []float64
	for _, g := range bySeed(eps) {
		col := make([]float64, 0, len(g))
		for q := 0; ; q++ {
			col = col[:0]
			for _, ep := range g {
				if q < len(ep.normNs) {
					col = append(col, ep.normNs[q])
				}
			}
			if len(col) == 0 {
				break
			}
			ms = append(ms, median(col))
		}
	}
	return ms
}

// subSeed is the k-th of the n seeds a run of seed steps: seed itself when
// n is 1, and runs of consecutive seeds never share one.
func subSeed(seed uint64, k, n int) uint64 {
	if n == 1 {
		return seed
	}
	return seed*uint64(n) + uint64(k)
}

// plainRun is the untraced run that gives the end-to-end metrics: a few
// set-ups, then whole episodes, cycling through the workload's seeds,
// until seconds of host time have passed, every seed has stepped and at
// least minTimedQuanta quanta have stepped. Set-up and step times are
// normalised by yardstick slices run between them.
func plainRun(w workload, seed uint64, seconds float64, out io.Writer) (*result, error) {
	start := now()
	ys := newYardstick()
	var setups, rawSetups, slices []float64
	before := ys.slice()
	for spent := 0.0; len(setups) < minSetups || (spent < setupBudgetSec && len(setups) < maxSetups); {
		_, s, err := timedBuild(w, seed, w.quanta, hooks{})
		if err != nil {
			return nil, err
		}
		after := ys.slice()
		setups = append(setups, s*scale(before, after))
		rawSetups = append(rawSetups, s)
		slices = append(slices, after)
		before = after
		spent += s
	}
	var (
		eps     []*episode
		last    *instance
		stepped int
	)
	for stepped < minTimedQuanta || len(eps) < w.seeds || now().Sub(start).Seconds() < seconds {
		last = nil // let the previous engine go before building the next
		ep, inst, err := runEpisode(w, w.quanta, subSeed(seed, len(eps)%w.seeds, w.seeds), nil, ys)
		if err != nil {
			return nil, err
		}
		if len(ep.stepNs) == 0 {
			return nil, fmt.Errorf("%s: the first quantum failed", w.name)
		}
		eps, last = append(eps, ep), inst
		stepped += len(ep.stepNs)
	}
	res := &result{Metrics: map[string]metric{}}
	var alloc uint64
	for _, ep := range eps {
		alloc += ep.alloc
		res.Attempted += ep.attempted
		res.Failed += ep.failed
	}
	res.Correct = outputCheck(out, eps)
	p50, p99, rate, positions, err := timeStats(eps, true)
	if err != nil {
		return nil, err
	}
	rp50, rp99, rrate, _, err := timeStats(eps, false)
	if err != nil {
		return nil, err
	}
	// The host times before normalising, and the yardstick's own, show
	// how fast the host ran during the run.
	fmt.Fprintf(out, "raw: p50_ms=%.6g p99_ms=%.6g sim_s_per_host_s=%.6g setup_s=%.6g slice_ms=%.6g\n",
		rp50/1e6, rp99/1e6, rrate, median(rawSetups), median(slices)/1e6)
	n := fmt.Sprintf("(normalised; %d quanta in %d episodes)", stepped, len(eps))
	pn := fmt.Sprintf("(normalised; %d positions of %d seeds, each a median over its episodes)", positions, w.seeds)
	// Only the last engine and a few scalars stay live for the heap
	// reading: the step times and the yardstick go first, so neither the
	// run's length nor the yardstick shows in heap_mib.
	eps, ys = nil, nil
	heap := liveHeapBytes()
	runtime.KeepAlive(last)
	for _, m := range []struct {
		name string
		v    float64
		unit string
		note string
	}{
		{"sim_s_per_host_s", rate, "s/s", n},
		{"quantum_ms_p50", p50 / 1e6, "ms", pn},
		{"quantum_ms_p99", p99 / 1e6, "ms", pn},
		{"setup_s", median(setups), "s", fmt.Sprintf("(median of %d set-ups, normalised)", len(setups))},
		{"alloc_kib_per_quantum", float64(alloc) / float64(res.Attempted) / 1024, "KiB", fmt.Sprintf("(n=%d quanta, every episode)", res.Attempted)},
		{"heap_mib", float64(heap) / (1 << 20), "MiB", "(live heap after GC, engine reachable)"},
	} {
		if err := res.add(out, m.name, m.v, m.unit, m.note); err != nil {
			return nil, err
		}
	}
	// failed_frac is printed, and carried by the attempted/failed fields
	// of the result line rather than as a metric: it is 0 on a healthy
	// run, and a metric's bound is a share of its median.
	fmt.Fprintf(out, "metric %-40s %14.6g %-8s (%d of %d quanta)\n", "failed_frac", float64(res.Failed)/float64(res.Attempted), "frac", res.Failed, res.Attempted)
	return res, nil
}
