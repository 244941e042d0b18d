// Command colloidsim reproduces the paper's evaluation artifacts.
//
// Usage:
//
//	colloidsim -list
//	colloidsim -exp fig1
//	colloidsim -exp fig5,fig6a -quick
//	colloidsim -experiments all -quick -seed 7 -parallel 8
//
// Each experiment prints the table corresponding to a figure or table
// in "Tiered Memory Management: Access Latency is the Key!" (SOSP'24);
// see EXPERIMENTS.md for the paper-vs-measured comparison.
//
// Experiments decompose into independent arms that run on a worker
// pool (-parallel, default GOMAXPROCS). Each arm draws a seed derived
// only from the experiment name, arm index and -seed, so results are
// bit-identical regardless of worker count or scheduling. Per-arm
// wall-clock timings stream to BENCH_<id>.json (-bench selects the
// directory; -bench "" disables).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"colloid/internal/experiments"
	"colloid/internal/heat"
	"colloid/internal/obs"
	"colloid/internal/scenario"
	"colloid/internal/trace"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments")
		exp      = flag.String("exp", "", "comma-separated experiment ids, or 'all'")
		quick    = flag.Bool("quick", false, "shorter runs (noisier numbers, same shapes)")
		seed     = flag.Uint64("seed", 1, "random seed")
		csvDir   = flag.String("csv", "", "also write each table as <dir>/<id>.csv")
		parallel = flag.Int("parallel", 0, "arm workers per experiment (0 = GOMAXPROCS, 1 = serial)")
		shardW   = flag.Int("shard-workers", 0, "per-quantum page-pipeline workers inside each simulation (0 = serial; results are identical at any value)")
		region   = flag.Int("region", 0, "default heat-tracking granularity: track per N-page region instead of exactly (power of two, 0 = exact); families sweeping their own fidelity axis override it per arm")
		forecast = flag.String("forecast", "", "region-heat forecaster for the default tracker: passthrough, trend, ewma[:alpha], or a '>' chain (requires -region)")
		benchDir = flag.String("bench", ".", "directory for BENCH_<id>.json timing reports (empty = off)")
		metrics  = flag.String("metrics", "", "write the merged obs metric summary JSON here")
		scName   = flag.String("scenario", "", "run one builtin fault-injection scenario by name (see -list)")
	)
	flag.Var(aliasValue{exp}, "experiments", "alias for -exp")
	flag.Parse()

	if *scName != "" {
		// -scenario x is shorthand for -exp scenario-x, validated
		// against the builtin registry for a friendlier error.
		if _, err := scenario.Builtin(*scName); err != nil {
			fmt.Fprintln(os.Stderr, "colloidsim:", err)
			os.Exit(2)
		}
		if *exp != "" {
			*exp += ","
		}
		*exp += "scenario-" + *scName
	}

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, id := range experiments.List() {
			fmt.Println("  " + id)
		}
		fmt.Println("\nbuiltin scenarios (-scenario <name>):")
		for _, name := range scenario.BuiltinNames() {
			fmt.Println("  " + name)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun with -exp <id>[,<id>...] or -exp all")
		}
		return
	}

	var ids []string
	if *exp == "all" {
		for _, id := range experiments.List() {
			if id == "fig9-series" {
				continue // bulky; run explicitly
			}
			if strings.HasPrefix(id, "scenario-") {
				continue // subsumed by the "scenarios" family
			}
			ids = append(ids, id)
		}
	} else {
		ids = strings.Split(*exp, ",")
		for i, id := range ids {
			ids[i] = strings.TrimSpace(id)
		}
	}

	heatSpec, heatErr := heat.ParseSpec(*region, *forecast)
	if err := validateFlags(ids, *parallel, *shardW, heatErr, heatSpec); err != nil {
		fmt.Fprintln(os.Stderr, "colloidsim:", err)
		os.Exit(2)
	}

	opts := experiments.Options{
		Quick:        *quick,
		Seed:         *seed,
		Parallelism:  *parallel,
		BenchDir:     *benchDir,
		ShardWorkers: *shardW,
		Heat:         heatSpec,
	}
	if *metrics != "" {
		opts.Metrics = obs.NewRegistry()
	}
	failed := 0
	for _, id := range ids {
		start := time.Now()
		tab, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", id, err)
			failed++
			continue
		}
		fmt.Print(tab.Render())
		fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
		if *csvDir != "" {
			if err := writeCSV(*csvDir, tab); err != nil {
				fmt.Fprintf(os.Stderr, "csv for %s: %v\n", id, err)
				failed++
			}
		}
	}
	if *metrics != "" {
		if err := writeMetrics(*metrics, opts.Metrics); err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// validateFlags reports every bad flag at once (experiment ids are
// checked against the registry; the sim configs themselves are
// validated by sim.New inside each arm).
func validateFlags(ids []string, parallel, shardWorkers int, heatErr error, heatSpec heat.Spec) error {
	var errs []error
	known := make(map[string]bool, len(experiments.List()))
	for _, id := range experiments.List() {
		known[id] = true
	}
	for _, id := range ids {
		if !known[id] {
			errs = append(errs, fmt.Errorf("unknown experiment %q (use -list)", id))
		}
	}
	if parallel < 0 {
		errs = append(errs, fmt.Errorf("negative -parallel %d", parallel))
	}
	if shardWorkers < 0 {
		errs = append(errs, fmt.Errorf("negative -shard-workers %d", shardWorkers))
	}
	if heatErr != nil {
		errs = append(errs, heatErr)
	} else if err := heatSpec.Validate(); err != nil {
		errs = append(errs, fmt.Errorf("-region/-forecast: %w", err))
	}
	return errors.Join(errs...)
}

// writeMetrics dumps the cross-experiment merged metric summary.
func writeMetrics(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := reg.WriteSummaryJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// aliasValue forwards a flag to another flag's backing string.
type aliasValue struct{ s *string }

func (a aliasValue) String() string {
	if a.s == nil {
		return ""
	}
	return *a.s
}
func (a aliasValue) Set(v string) error { *a.s = v; return nil }

// writeCSV saves the table under dir as <id>.csv.
func writeCSV(dir string, tab *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, tab.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteTableCSV(f, tab.Columns, tab.Rows); err != nil {
		return err
	}
	return f.Close()
}
