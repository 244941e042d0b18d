// Command benchdiff compares the repository benchmark's results for two
// commits, the parent and a change, run on one host with the same
// settings. Each input file is the standard output of one perfbench run:
//
//	benchdiff -parent 'runs/parent-*.txt' -change 'runs/change-*.txt' -bench BENCHMARK.json
//
// Files pair by the workload, seed and trace flag in their "perfbench:"
// header. Every file must name the same host in its "host:" line, and
// the report opens with that line. For every workload and end-to-end
// metric that the benchmark declares, benchdiff prints each side's
// median with its quartiles, the change in the median, how many pairs
// the change won (ties count for neither side), the metric's bound and
// a verdict:
//
//	gain        the change won at least 9 in 10 pairs and the medians
//	            differ by more than the parent's interquartile range
//	worse       the change's median is worse than the parent's by more
//	            than the bound
//	unresolved  a side's interquartile range is wider than the bound
//	            and the runs do not separate (some parent run is as
//	            good as some change run)
//	within      otherwise
//
// Traced runs (trace=1) get the same table for the per-layer metrics,
// with no bound or verdict. benchdiff also checks that the two runs of
// every pair printed the same per-seed check: digests, and totals the
// failed and attempted quanta of each side.
//
// The exit status is 1 on a worse verdict, a digest difference or a run
// that reports correct:false, and 2 on a usage or input error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	parentGlob := fs.String("parent", "", "glob of the parent commit's perfbench outputs")
	changeGlob := fs.String("change", "", "glob of the change's perfbench outputs")
	benchPath := fs.String("bench", "BENCHMARK.json", "the benchmark declaration: workloads, metrics and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parentGlob == "" || *changeGlob == "" {
		fmt.Fprintln(stderr, "benchdiff: -parent and -change are required")
		return 2
	}
	bad, err := compareGlobs(stdout, *benchPath, *parentGlob, *changeGlob)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	if bad {
		return 1
	}
	return 0
}

// bench is the part of BENCHMARK.json that benchdiff reads.
type bench struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is one perfbench run: its header, host, per-seed check lines
// and final JSON line.
type result struct {
	path      string
	key       runKey
	host      string
	checks    []string
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

type runKey struct {
	workload string
	seed     uint64
	trace    int
}

// parse reads one perfbench output.
func parse(path string, r io.Reader) (*result, error) {
	res := &result{path: path}
	var header, last string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "perfbench: "):
			header = line
		case strings.HasPrefix(line, "host: "):
			res.host = line
		case strings.HasPrefix(line, "check: seed="):
			// The episode count depends on how fast the host ran; the
			// seed, digest and modelled throughput do not.
			var kept []string
			for _, f := range strings.Fields(line)[1:] {
				if !strings.HasPrefix(f, "episodes=") {
					kept = append(kept, f)
				}
			}
			res.checks = append(res.checks, strings.Join(kept, " "))
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if header == "" {
		return nil, fmt.Errorf("%s: no perfbench: header", path)
	}
	kv := map[string]string{}
	for _, f := range strings.Fields(header)[1:] {
		if k, v, ok := strings.Cut(f, "="); ok {
			kv[k] = v
		}
	}
	seed, err := strconv.ParseUint(kv["seed"], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("%s: header seed: %v", path, err)
	}
	trace, err := strconv.Atoi(kv["trace"])
	if err != nil {
		return nil, fmt.Errorf("%s: header trace: %v", path, err)
	}
	if kv["workload"] == "" {
		return nil, fmt.Errorf("%s: header names no workload", path)
	}
	res.key = runKey{kv["workload"], seed, trace}
	if err := json.Unmarshal([]byte(last), res); err != nil {
		return nil, fmt.Errorf("%s: last line is not the result object: %v", path, err)
	}
	sort.Strings(res.checks)
	return res, nil
}

// load parses every file the glob matches, keyed by run.
func load(glob string) (map[runKey]*result, string, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, "", err
	}
	if len(paths) == 0 {
		return nil, "", fmt.Errorf("%s matches no files", glob)
	}
	runs := map[runKey]*result{}
	host := ""
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, "", err
		}
		res, err := parse(p, f)
		f.Close()
		if err != nil {
			return nil, "", err
		}
		if prev, ok := runs[res.key]; ok {
			return nil, "", fmt.Errorf("%s and %s are the same run (%s seed %d trace %d)", prev.path, p, res.key.workload, res.key.seed, res.key.trace)
		}
		if host != "" && res.host != host {
			return nil, "", fmt.Errorf("%s ran on another host than the other runs (%q, not %q)", p, res.host, host)
		}
		runs[res.key], host = res, res.host
	}
	return runs, host, nil
}

func compareGlobs(out io.Writer, benchPath, parentGlob, changeGlob string) (bool, error) {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var spec bench
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("%s: %v", benchPath, err)
	}
	parent, parentHost, err := load(parentGlob)
	if err != nil {
		return false, err
	}
	change, changeHost, err := load(changeGlob)
	if err != nil {
		return false, err
	}
	if parentHost != changeHost {
		return false, fmt.Errorf("the two sides ran on different hosts (%q and %q)", parentHost, changeHost)
	}
	if parentHost == "" {
		parentHost = "host: not recorded"
	}
	fmt.Fprintf(out, "%s\n\n", parentHost)
	return compare(out, spec, parent, change)
}

// group is the runs of one workload and trace flag, paired by seed.
type group struct {
	workload string
	trace    int
	parent   []*result
	change   []*result
}

// compare prints the report and says whether the change must be
// refused.
func compare(out io.Writer, spec bench, parent, change map[runKey]*result) (bool, error) {
	keys := make([]runKey, 0, len(parent))
	for k := range parent {
		keys = append(keys, k)
	}
	for k := range change {
		if parent[k] == nil {
			keys = append(keys, k)
		}
	}
	order := map[string]int{}
	for i, w := range spec.Workloads {
		order[w.Name] = i + 1
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			oa, ob := order[a.workload], order[b.workload]
			if oa != ob {
				return oa < ob
			}
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return a.trace < b.trace
		}
		return a.seed < b.seed
	})
	for _, k := range keys {
		if change[k] == nil {
			return false, fmt.Errorf("%s has no change run to pair with", parent[k].path)
		}
		if parent[k] == nil {
			return false, fmt.Errorf("%s has no parent run to pair with", change[k].path)
		}
	}
	var groups []*group
	for _, k := range keys {
		if n := len(groups); n == 0 || groups[n-1].workload != k.workload || groups[n-1].trace != k.trace {
			groups = append(groups, &group{workload: k.workload, trace: k.trace})
		}
		g := groups[len(groups)-1]
		g.parent = append(g.parent, parent[k])
		g.change = append(g.change, change[k])
	}
	bad := false
	for _, g := range groups {
		bad = report(out, spec, g) || bad
	}
	return bad, nil
}

// report prints one group's table and checks; it returns true when the
// group must refuse the change.
func report(out io.Writer, spec bench, g *group) bool {
	seeds := make([]string, len(g.parent))
	for i, r := range g.parent {
		seeds[i] = strconv.FormatUint(r.key.seed, 10)
	}
	fmt.Fprintf(out, "%s trace=%d: %d pairs, seeds %s\n", g.workload, g.trace, len(g.parent), strings.Join(seeds, " "))
	metrics := spec.EndToEnd
	if g.trace != 0 {
		metrics = spec.PerLayer
	}
	bad := false
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tparent median [Q1, Q3]\tchange median [Q1, Q3]\tΔ%\twins\tbound\tverdict\t")
	for _, m := range metrics {
		p, okP := values(g.parent, m.Name)
		c, okC := values(g.change, m.Name)
		// A layer absent from the workload reports 0 on every run.
		if !okP || !okC || (allZero(p) && allZero(c)) {
			continue
		}
		row := compareMetric(p, c, m.Better == "higher", m.Bound)
		bound, verdict := "-", "-"
		if g.trace == 0 {
			bound, verdict = fmt.Sprintf("%.0f%%", 100*m.Bound), row.verdict
		}
		bad = bad || verdict == verdictWorse
		fmt.Fprintf(tw, "  %s (%s)\t%s\t%s\t%+.1f%%\t%d/%d\t%s\t%s\t\n", m.Name, m.Unit,
			row.parent, row.change, row.deltaPct, row.wins, len(p), bound, verdict)
	}
	tw.Flush()
	var differ []string
	var pFailed, pAttempted, cFailed, cAttempted int
	for i := range g.parent {
		pr, cr := g.parent[i], g.change[i]
		if strings.Join(pr.checks, "\n") != strings.Join(cr.checks, "\n") {
			differ = append(differ, strconv.FormatUint(pr.key.seed, 10))
		}
		for _, r := range []*result{pr, cr} {
			if !r.Correct {
				fmt.Fprintf(out, "  correct:false in %s\n", r.path)
				bad = true
			}
		}
		pFailed, pAttempted = pFailed+pr.Failed, pAttempted+pr.Attempted
		cFailed, cAttempted = cFailed+cr.Failed, cAttempted+cr.Attempted
	}
	if len(differ) == 0 {
		fmt.Fprintf(out, "  check digests: equal in %d/%d pairs\n", len(g.parent), len(g.parent))
	} else {
		fmt.Fprintf(out, "  check digests: DIFFER for seeds %s\n", strings.Join(differ, " "))
		bad = true
	}
	fmt.Fprintf(out, "  failed/attempted quanta: parent %d/%d, change %d/%d\n\n", pFailed, pAttempted, cFailed, cAttempted)
	return bad
}

// values returns one metric's value from every run, in pair order.
func values(runs []*result, name string) ([]float64, bool) {
	out := make([]float64, len(runs))
	for i, r := range runs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil, false
		}
		out[i] = m.Value
	}
	return out, true
}

func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

const (
	verdictGain       = "gain"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictWithin     = "within"
)

// summary is a median with its quartiles.
type summary struct{ q1, median, q3 float64 }

func (s summary) iqr() float64 { return s.q3 - s.q1 }

func (s summary) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.median, s.q1, s.q3)
}

func summarize(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return summary{quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)}
}

// quantile interpolates linearly between the order statistics of
// sorted, the quartile rule of most statistics packages.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

type comparison struct {
	parent, change summary
	deltaPct       float64
	wins           int
	verdict        string
}

// compareMetric applies the benchmark's rules to one metric's paired
// values: p[i] and c[i] are the parent's and the change's runs of pair i.
func compareMetric(p, c []float64, higherBetter bool, bound float64) comparison {
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	r := comparison{parent: summarize(p), change: summarize(c)}
	pm, cm := r.parent.median, r.change.median
	r.deltaPct = 100 * (cm - pm) / math.Abs(pm)
	for i := range p {
		if better(c[i], p[i]) {
			r.wins++
		}
	}
	// The change separates when its worst run beats the parent's best.
	worstC, bestP := c[0], p[0]
	for i := range p {
		if better(worstC, c[i]) {
			worstC = c[i]
		}
		if better(p[i], bestP) {
			bestP = p[i]
		}
	}
	worsening := r.deltaPct / 100
	if higherBetter {
		worsening = -worsening
	}
	switch {
	case 10*r.wins >= 9*len(p) && better(cm, pm) && math.Abs(cm-pm) > r.parent.iqr():
		r.verdict = verdictGain
	case worsening > bound:
		r.verdict = verdictWorse
	case (r.parent.iqr() > bound*math.Abs(pm) || r.change.iqr() > bound*math.Abs(cm)) && !better(worstC, bestP):
		r.verdict = verdictUnresolved
	default:
		r.verdict = verdictWithin
	}
	return r
}
