// Command colloidtrace runs a single tiered-memory scenario and emits
// its per-interval time series (throughput, per-tier latency and
// bandwidth, migration rate) as CSV — the raw material behind every
// line plot in the paper.
//
// Examples:
//
//	# HeMem+Colloid under a contention step at t=30s
//	colloidtrace -system hemem -colloid -intensity 0 -step-intensity 3 -step-at 30 -duration 60
//
//	# Vanilla MEMTIS with a hot-set shift
//	colloidtrace -system memtis -hotshift-at 100 -duration 200 -o memtis.csv
//
//	# Object-size variant of GUPS on a custom hot set
//	colloidtrace -system tpp -colloid -object 4096 -hot-gb 12 -ws-gb 48
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"colloid/internal/core"
	"colloid/internal/heat"
	"colloid/internal/hemem"
	"colloid/internal/memsys"
	"colloid/internal/memtis"
	"colloid/internal/obs"
	"colloid/internal/related"
	"colloid/internal/scenario"
	"colloid/internal/sim"
	"colloid/internal/tpp"
	"colloid/internal/trace"
	"colloid/internal/workloads"
)

func main() {
	var (
		system     = flag.String("system", "hemem", "tiering system: hemem|tpp|memtis|batman|carrefour|none")
		withCol    = flag.Bool("colloid", false, "enable the Colloid controller (hemem/tpp/memtis)")
		intensity  = flag.Int("intensity", 0, "initial antagonist intensity (0-3)")
		stepAt     = flag.Float64("step-at", 0, "time (sec) to change the antagonist intensity (0 = never)")
		stepTo     = flag.Int("step-intensity", 0, "intensity applied at -step-at")
		hotshiftAt = flag.Float64("hotshift-at", 0, "time (sec) to replace the hot set (0 = never)")
		duration   = flag.Float64("duration", 60, "simulated seconds")
		wsGB       = flag.Int64("ws-gb", 72, "working set (GiB)")
		hotGB      = flag.Int64("hot-gb", 24, "hot set (GiB)")
		object     = flag.Int64("object", 64, "GUPS object size (bytes)")
		cores      = flag.Int("cores", 15, "application cores")
		region     = flag.Int("region", 0, "track heat per N-page region instead of exactly (power of two, 0 = exact)")
		forecast   = flag.String("forecast", "", "region-heat forecaster: passthrough, trend, ewma[:alpha], or a '>' chain like trend>ewma:0.5 (requires -region)")
		sample     = flag.Float64("sample", 1, "trace sampling interval (sec)")
		seed       = flag.Uint64("seed", 1, "random seed")
		out        = flag.String("o", "", "output CSV path (default stdout)")
		metrics    = flag.String("metrics", "", "write the obs event trace here (.csv = CSV, else JSONL)")
		metricsSum = flag.String("metrics-summary", "", "write the obs counter/gauge summary JSON here")
	)
	flag.Parse()

	if err := run(settings{
		system: *system, colloid: *withCol,
		intensity: *intensity, stepAt: *stepAt, stepTo: *stepTo,
		hotshiftAt: *hotshiftAt, duration: *duration,
		wsGB: *wsGB, hotGB: *hotGB, object: *object, cores: *cores,
		region: *region, forecast: *forecast, sample: *sample, seed: *seed, out: *out,
		metrics: *metrics, metricsSummary: *metricsSum,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "colloidtrace:", err)
		os.Exit(1)
	}
}

type settings struct {
	system             string
	colloid            bool
	intensity, stepTo  int
	stepAt, hotshiftAt float64
	duration           float64
	wsGB, hotGB        int64
	object             int64
	cores              int
	region             int
	forecast           string
	sample             float64
	seed               uint64
	out                string
	metrics            string
	metricsSummary     string
}

// validate reports every problem with the flag set at once, combining
// cmd-level checks with sim.Config.Validate.
func (s settings) validate(cfg sim.Config) error {
	var errs []error
	if _, err := makeSystem(s.system, s.colloid); err != nil {
		errs = append(errs, err)
	}
	if s.duration <= 0 {
		errs = append(errs, fmt.Errorf("non-positive -duration %v", s.duration))
	}
	if s.intensity < 0 || s.stepTo < 0 {
		errs = append(errs, fmt.Errorf("negative antagonist intensity (-intensity %d, -step-intensity %d)",
			s.intensity, s.stepTo))
	}
	if s.hotGB > s.wsGB {
		errs = append(errs, fmt.Errorf("-hot-gb %d exceeds -ws-gb %d", s.hotGB, s.wsGB))
	}
	if s.object <= 0 {
		errs = append(errs, fmt.Errorf("non-positive -object %d", s.object))
	}
	if s.cores <= 0 {
		errs = append(errs, fmt.Errorf("non-positive -cores %d", s.cores))
	}
	if err := cfg.Validate(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

func run(s settings) error {
	topo, err := memsys.NewTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	if err != nil {
		return err
	}
	gups := &workloads.GUPS{
		WorkingSetBytes: s.wsGB * memsys.GiB,
		HotSetBytes:     s.hotGB * memsys.GiB,
		HotProb:         0.9,
		ObjectBytes:     s.object,
		Cores:           s.cores,
	}
	var reg *obs.Registry
	if s.metrics != "" || s.metricsSummary != "" {
		reg = obs.NewRegistry()
		reg.EnableTrace(0)
	}
	spec, err := heat.ParseSpec(s.region, s.forecast)
	if err != nil {
		return err
	}
	cfg := sim.Config{
		Topology:        topo,
		WorkingSetBytes: gups.WorkingSetBytes,
		Profile:         gups.Profile(),
		Workload:        gups,
		Antagonist:      workloads.Intensity(s.intensity),
		Heat:            spec,
		Seed:            s.seed,
		SampleEverySec:  s.sample,
		Obs:             reg,
	}
	if err := s.validate(cfg); err != nil {
		return err
	}
	sys, err := makeSystem(s.system, s.colloid)
	if err != nil {
		return err
	}
	var events []scenario.Event
	if s.stepAt > 0 {
		events = append(events, scenario.AntagonistStep{
			AtSec:     s.stepAt,
			Intensity: workloads.Intensity(s.stepTo),
		})
	}
	if s.hotshiftAt > 0 {
		events = append(events, scenario.WorkloadShift{AtSec: s.hotshiftAt, Shift: gups.ShiftHotSet})
	}
	opts := []sim.Option{sim.WithSystem(sys)}
	if len(events) > 0 {
		opts = append(opts, sim.WithScenario(&scenario.Scenario{Name: "colloidtrace", Events: events}))
	}
	engine, err := sim.New(cfg, opts...)
	if err != nil {
		return err
	}
	if err := engine.Run(s.duration); err != nil {
		return err
	}

	if err := writeMetrics(s, reg); err != nil {
		return err
	}

	w := os.Stdout
	if s.out != "" {
		f, err := os.Create(s.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return trace.WriteSamplesCSV(w, engine.Tenant(0).Samples(), topo.NumTiers())
}

// writeMetrics dumps the event trace (-metrics) and the counter/gauge
// summary (-metrics-summary) if requested.
func writeMetrics(s settings, reg *obs.Registry) error {
	if s.metrics != "" {
		f, err := os.Create(s.metrics)
		if err != nil {
			return err
		}
		defer f.Close()
		if strings.HasSuffix(s.metrics, ".csv") {
			err = obs.WriteEventsCSV(f, reg.Events())
		} else {
			err = obs.WriteEventsJSONL(f, reg.Events())
		}
		if err != nil {
			return err
		}
		if n := reg.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "colloidtrace: event trace overflowed, %d oldest events dropped\n", n)
		}
	}
	if s.metricsSummary != "" {
		f, err := os.Create(s.metricsSummary)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := reg.WriteSummaryJSON(f); err != nil {
			return err
		}
	}
	return nil
}

// makeSystem builds the requested tiering system; "none" runs static
// first-fit placement.
func makeSystem(name string, withColloid bool) (sim.System, error) {
	var opts *core.Options
	if withColloid {
		opts = &core.Options{}
	}
	switch name {
	case "hemem":
		return hemem.New(hemem.Config{Colloid: opts}), nil
	case "tpp":
		return tpp.New(tpp.Config{Colloid: opts}), nil
	case "memtis":
		return memtis.New(memtis.Config{Colloid: opts}), nil
	case "batman":
		return related.New(related.Config{Policy: related.BATMAN}), nil
	case "carrefour":
		return related.New(related.Config{Policy: related.Carrefour}), nil
	case "none":
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown system %q", name)
	}
}
