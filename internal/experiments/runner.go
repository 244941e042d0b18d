package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"colloid/internal/obs"
	"colloid/internal/shard"
	"colloid/internal/stats"
)

// Arm is one independent unit of an experiment: a seeded simulation (or
// sweep point) whose result does not depend on any other arm. Arms of
// one experiment may run concurrently; anything they share (topologies,
// recorded app profiles, option structs) must be treated as read-only.
type Arm struct {
	// Name identifies the arm within its experiment ("steady/hemem/2x").
	Name string
	// Run executes the arm and returns its result for Assemble.
	Run func(ctx ArmContext) (any, error)
}

// ArmContext carries the per-arm determinism state.
type ArmContext struct {
	// Experiment is the owning experiment's ID.
	Experiment string
	// Index is the arm's position in the Arms slice.
	Index int
	// Seed is the arm's private RNG seed, derived from (experiment,
	// index, base seed); identical regardless of worker count or
	// scheduling, so parallel results match serial ones bit for bit.
	Seed uint64
	// Options are the experiment options (arms needing the shared
	// cross-figure runs read Options.Seed instead of Seed; see
	// common.go).
	Options Options
	// Obs is the arm's private metrics registry (nil when metrics are
	// off). Arms thread it into sim.Config.Obs; the runner folds its
	// values into BENCH_<id>.json and merges it into Options.Metrics.
	Obs *obs.Registry
}

// armSeed derives the deterministic per-arm seed: the base seed is
// split by experiment name, then by arm index. No wall clock, no
// scheduling dependence.
func armSeed(experiment string, index int, base uint64) uint64 {
	return stats.NewRNG(base).SplitString(experiment).Split(uint64(index)).Uint64()
}

// Runner executes experiment arms on a fixed-size worker pool.
type Runner struct {
	// Workers is the pool size; <= 0 uses GOMAXPROCS.
	Workers int
	// BenchDir, when non-empty, receives BENCH_<id>.json with per-arm
	// wall-clock timings, rewritten as arms complete.
	BenchDir string
}

// armRecord is one arm's timing entry in the BENCH file.
type armRecord struct {
	Name        string             `json:"name"`
	Index       int                `json:"index"`
	Seed        uint64             `json:"seed"`
	WallSeconds float64            `json:"wall_seconds"`
	Error       string             `json:"error,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// benchReport is the BENCH_<id>.json document.
type benchReport struct {
	Experiment       string      `json:"experiment"`
	BaseSeed         uint64      `json:"base_seed"`
	Quick            bool        `json:"quick"`
	Workers          int         `json:"workers"`
	Arms             []armRecord `json:"arms"`
	TotalWallSeconds float64     `json:"total_wall_seconds,omitempty"`
}

// benchWriter streams the report to disk: after each arm completes the
// full document is re-marshaled, so the file is valid JSON at every
// point during the run.
type benchWriter struct {
	mu     sync.Mutex
	path   string
	report benchReport
}

func newBenchWriter(dir, id string, o Options, workers, arms int) (*benchWriter, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &benchWriter{
		path: filepath.Join(dir, "BENCH_"+id+".json"),
		report: benchReport{
			Experiment: id,
			BaseSeed:   o.Seed,
			Quick:      o.Quick,
			Workers:    workers,
			Arms:       make([]armRecord, arms),
		},
	}
	return w, w.flushLocked()
}

func (w *benchWriter) record(rec armRecord) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.report.Arms[rec.Index] = rec
	_ = w.flushLocked() // timing files must never fail an experiment
}

func (w *benchWriter) finish(totalSeconds float64) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.report.TotalWallSeconds = totalSeconds
	return w.flushLocked()
}

func (w *benchWriter) flushLocked() error {
	buf, err := json.MarshalIndent(&w.report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(w.path, append(buf, '\n'), 0o644)
}

// Run executes one experiment: enumerate arms, run them on the pool,
// assemble the table.
func (r *Runner) Run(id string, opts Options) (*Table, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (use List)", id)
	}
	o := opts.withDefaults()
	arms, err := e.Arms(o)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	results, err := r.runArms(id, arms, o)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	return e.Assemble(o, results)
}

// runArms executes the arms as shard.Run shards, one per arm, and
// returns their results in arm order. All arms run to completion even
// if one fails; the lowest-index error is returned so failures are
// deterministic too.
func (r *Runner) runArms(id string, arms []Arm, o Options) ([]any, error) {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(arms) {
		workers = len(arms)
	}
	bench, err := newBenchWriter(r.BenchDir, id, o, workers, len(arms))
	if err != nil {
		return nil, err
	}
	start := time.Now() //colloid:allow determinism bench wall-clock timing only; never feeds simulation state
	results := make([]any, len(arms))
	errs := make([]error, len(arms))
	// Per-arm registries keep the obs fast path lock-free; they are
	// merged serially after the pool drains. Collected whenever a BENCH
	// file or a caller-supplied registry wants them.
	var regs []*obs.Registry
	if bench != nil || o.Metrics != nil {
		regs = make([]*obs.Registry, len(arms))
		for i := range regs {
			regs[i] = obs.NewRegistry()
		}
	}
	shard.Run(workers, len(arms), func(i int) {
		ctx := ArmContext{
			Experiment: id,
			Index:      i,
			Seed:       armSeed(id, i, o.Seed),
			Options:    o,
		}
		if regs != nil {
			ctx.Obs = regs[i]
		}
		armStart := time.Now() //colloid:allow determinism bench wall-clock timing only; never feeds simulation state
		results[i], errs[i] = runArm(arms[i], ctx)
		rec := armRecord{
			Name:        arms[i].Name,
			Index:       i,
			Seed:        ctx.Seed,
			WallSeconds: time.Since(armStart).Seconds(), //colloid:allow determinism per-arm wall time reported in BENCH json, not simulation input
			Metrics:     ctx.Obs.Values(),
		}
		if errs[i] != nil {
			rec.Error = errs[i].Error()
		}
		bench.record(rec)
	})
	if o.Metrics != nil {
		for _, reg := range regs {
			o.Metrics.Merge(reg)
		}
	}
	//colloid:allow determinism total wall time reported in BENCH json, not simulation input
	if err := bench.finish(time.Since(start).Seconds()); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: arm %d (%s): %w", i, arms[i].Name, err)
		}
	}
	return results, nil
}

// runArm invokes the arm, converting a panic into an error so one bad
// arm fails its experiment instead of killing every worker's progress.
func runArm(a Arm, ctx ArmContext) (result any, err error) {
	defer func() {
		if p := recover(); p != nil {
			//colloid:allow msgprefix wrapped by the prefixed "experiments: arm ..." error at the call site
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return a.Run(ctx)
}
