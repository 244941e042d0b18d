// Package experiments reproduces every table and figure in the paper's
// evaluation (Sections 2 and 5). Each runner assembles workloads,
// systems and the simulator, executes the experiment, and returns a
// Table whose rows mirror what the paper plots; cmd/colloidsim renders
// them and EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"colloid/internal/heat"
	"colloid/internal/obs"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shortens runs for use in benchmarks and smoke tests; the
	// shapes survive, exact values get noisier.
	Quick bool
	// Seed drives all randomness (default 1).
	Seed uint64
	// Parallelism is the worker count for independent experiment arms:
	// 0 uses GOMAXPROCS, 1 forces serial execution. Per-arm results are
	// bit-identical at any worker count (seeds are derived per arm, not
	// per worker).
	Parallelism int
	// BenchDir, when non-empty, streams per-arm wall-clock timings to
	// <BenchDir>/BENCH_<id>.json as each experiment runs.
	BenchDir string
	// Metrics, when non-nil, accumulates every arm's obs metrics: each
	// arm runs against its own registry (no cross-arm locking) and the
	// runner merges them here after all arms finish.
	Metrics *obs.Registry
	// ShardWorkers is the per-quantum page-pipeline worker count threaded
	// into every simulation (sim.Config.Workers): 0 defaults to 1
	// (serial). Results are bit-identical at any setting — sharded
	// reductions are ordered and per-shard RNG streams are derived from
	// the shard index, never the worker — so this is purely a wall-clock
	// knob.
	ShardWorkers int
	// Heat is the default access-tracking fidelity for every GUPS-driven
	// simulation (sim.Config.Heat semantics: zero spec = exact). Unlike
	// ShardWorkers this knob changes results — coarse tracking smears
	// heat. Experiments that sweep their own fidelity axis (the heat and
	// tenants families) replace it per arm with their own spec or
	// explicit cluster specs.
	Heat heat.Spec
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// scale shortens durations in Quick mode.
func (o Options) scale(full, quick float64) float64 {
	if o.Quick {
		return quick
	}
	return full
}

// Table is one reproduced artifact.
type Table struct {
	// ID is the experiment identifier ("fig1", "fig2a", ...).
	ID string
	// Title describes the artifact.
	Title string
	// Columns are header labels.
	Columns []string
	// Rows hold formatted cells.
	Rows [][]string
	// Notes carry caveats and pointers (paper values, scaling).
	Notes []string
}

// Render formats the table as fixed-width text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Experiment is one registered artifact, decomposed into independent
// arms so the Runner can execute them on a worker pool. Arms enumerates
// the units of work (each an independent seeded simulation); Assemble
// folds the index-aligned arm results back into the Table.
type Experiment struct {
	// Title is a short human-readable description.
	Title string
	// Arms enumerates the experiment's independent arms. It runs once
	// per Run, serially, and may do deterministic setup (profile
	// extraction, topology construction) whose products arms share
	// read-only.
	Arms func(o Options) ([]Arm, error)
	// Assemble builds the table from arm results, index-aligned with
	// the slice Arms returned. It runs after every arm has finished, so
	// table layout is independent of arm scheduling.
	Assemble func(o Options, results []any) (*Table, error)
}

// registry maps experiment IDs to experiments; populated by init
// functions in the per-figure files.
var registry = map[string]*Experiment{}

// register adds an experiment; duplicate IDs are a programming error.
func register(id string, e *Experiment) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = e
}

// Run executes the experiment with the given ID, parallelizing its arms
// according to opts.Parallelism.
func Run(id string, opts Options) (*Table, error) {
	return (&Runner{Workers: opts.Parallelism, BenchDir: opts.BenchDir}).Run(id, opts)
}

// List returns all experiment IDs in sorted order.
func List() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Formatting helpers shared by runners.

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// fOps renders a throughput in M ops/s.
func fOps(v float64) string { return fmt.Sprintf("%.1fM", v/1e6) }

// fPct renders a fraction as a percentage, clamping negative zero from
// floating-point residue.
func fPct(v float64) string {
	if v > -1e-9 && v < 0 {
		v = 0
	}
	return fmt.Sprintf("%.1f%%", v*100)
}

// fX renders a speedup.
func fX(v float64) string { return fmt.Sprintf("%.2fx", v) }
