package experiments

// The heat family measures the tracking-fidelity/scale trade-off behind
// sim.Config.Heat. The fidelity ablation runs the standard contended
// GUPS testbed on HeMem at region granularities 1/4/64/1024 against the
// exact tracker: granularity 1 must reproduce the exact run bit for bit
// (the golden traces pin this), and coarser regions trade placement
// quality for footprint. The scale arms then drive a RegionTracker
// directly over >=10^7 pages — an address-space size whose exact
// counters alone would dwarf the region tracker's whole footprint —
// and report deterministic cost proxies (cells, leaves, bytes/page);
// per-arm wall-clock lands in BENCH_heat.json via the standard runner.

import (
	"fmt"

	"colloid/internal/heat"
	"colloid/internal/hemem"
	"colloid/internal/memsys"
	"colloid/internal/pages"
	"colloid/internal/sim"
	"colloid/internal/stats"
	"colloid/internal/workloads"
)

func init() {
	register("heat", &Experiment{
		Title:    "heat-tracking fidelity ablation and region-tracker scale",
		Arms:     heatArms,
		Assemble: heatAssemble,
	})
}

// heatSpecs is the fidelity axis: the exact tracker, the region tracker
// at the ablation granularities, and one forecasting configuration to
// exercise the chained-forecaster path end to end.
func heatSpecs() []heat.Spec {
	return []heat.Spec{
		{}, // exact
		{Kind: heat.Region, RegionPages: 1},
		{Kind: heat.Region, RegionPages: 4},
		{Kind: heat.Region, RegionPages: 64},
		{Kind: heat.Region, RegionPages: 1024},
		{Kind: heat.Region, RegionPages: 64, Forecaster: heat.Chain{heat.LinearTrend{}, heat.EWMA{Alpha: 0.5}}},
	}
}

// heatScalePages is the scale-arm page count: 2^24 (~16.8M) pages full,
// a decade smaller in quick mode. Exact counters for the full count
// would pin 64 MiB before the first split; the region tracker at 1024
// pages/region holds the same space in well under 1 MiB.
func heatScalePages(o Options) int {
	if o.Quick {
		return 1 << 20
	}
	return 1 << 24
}

type heatFidelityResult struct {
	spec         string
	mops         float64
	latencyRatio float64
	trackerBytes int64
	trackedPages int
}

type heatScaleResult struct {
	pages        int
	quanta       int
	touches      int
	cells        int
	footprint    int64
	exactBytes   int64
	tracked      int
	cools        int
	hotChecksum  uint64
	sweepPerPage float64
}

func heatArms(o Options) ([]Arm, error) {
	var arms []Arm
	for _, spec := range heatSpecs() {
		arms = append(arms, Arm{
			Name: "fidelity/" + spec.String(),
			Run: func(ctx ArmContext) (any, error) {
				return runHeatFidelity(spec, ctx)
			},
		})
	}
	arms = append(arms, Arm{
		Name: fmt.Sprintf("scale/pages=%d", heatScalePages(o)),
		Run: func(ctx ArmContext) (any, error) {
			return runHeatScale(heatScalePages(ctx.Options), ctx)
		},
	})
	return arms, nil
}

// runHeatFidelity runs the standard contended GUPS testbed (HeMem at
// 2x) with the tracker selected by spec, reporting steady-state
// placement quality next to the tracker's storage cost.
func runHeatFidelity(spec heat.Spec, ctx ArmContext) (any, error) {
	sys := hemem.New(hemem.Config{})
	g := workloads.DefaultGUPS()
	// Base seed, like runSteady: fidelity rows differ only in the
	// tracker, so they must run the same workload stream.
	e, err := sim.New(gupsConfig(paperTopology(0, 0), g, workloads.Intensity2x, ctx.Options.Seed,
		ctx.Options.ShardWorkers, spec, ctx.Obs), sim.WithSystem(sys))
	if err != nil {
		return nil, err
	}
	secs := convergeSeconds("hemem", ctx.Options)
	if err := e.Run(secs); err != nil {
		return nil, err
	}
	st := e.Tenant(0).SteadyState(secs / 3)
	hs := sys.Stats()
	return heatFidelityResult{
		spec:         spec.String(),
		mops:         st.OpsPerSec / 1e6,
		latencyRatio: st.LatencyNs[0] / st.LatencyNs[1],
		trackerBytes: hs.TrackerBytes,
		trackedPages: hs.TrackedPages,
	}, nil
}

// runHeatScale drives a RegionTracker directly over nPages pages with a
// deterministic skewed touch stream: 70% of touches land in a drifting
// hot band one region wide — hot enough to split that region's leaves
// down to single pages each quantum, so the drift exercises the full
// split-then-merge churn path at scale. The rest spread across the
// whole space. The result columns are all deterministic; the point is
// that the run completes with a footprint and cooling sweep bounded by
// regions, not pages.
func runHeatScale(nPages int, ctx ArmContext) (any, error) {
	const granularity = 1024
	tr := heat.NewRegionTracker(16, granularity, nil)
	tr.SetWorkers(maxInt(ctx.Options.ShardWorkers, 1))
	quanta := int(ctx.Options.scale(50, 10))
	touches := touchHotBand(tr, stats.NewRNG(ctx.Seed), nPages, granularity, quanta)
	// Deterministic digest over the hot pages so any behavior change
	// shows up in the table, FNV-1a over the hot IDs.
	var checksum uint64 = 14695981039346656037
	for _, id := range tr.AppendHot(nil, 1, nil, 4096) {
		checksum ^= uint64(uint32(id))
		checksum *= 1099511628211
	}
	cells := (nPages + granularity - 1) / granularity
	return heatScaleResult{
		pages:        nPages,
		quanta:       quanta,
		touches:      touches,
		cells:        cells,
		footprint:    tr.MemoryFootprintBytes(),
		exactBytes:   int64(nPages) * 4,
		tracked:      tr.Tracked(),
		cools:        tr.Cools(),
		hotChecksum:  checksum,
		sweepPerPage: float64(cells) / float64(nPages),
	}, nil
}

// touchHotBand is the scale arms' touch stream: it drives tr with
// 20,000 touches over n pages per quantum, cooling after each of the
// quanta, and returns the touch count. Each touch draws rng.Intn(10)
// first: below 7 it lands in a hot band hotBand pages wide (a second
// draw, Intn(hotBand)) that drifts n/quanta pages a quantum, otherwise
// anywhere (Intn(n)).
func touchHotBand(tr *heat.RegionTracker, rng *stats.RNG, n, hotBand, quanta int) int {
	const perQuantum = 20_000
	for q := 0; q < quanta; q++ {
		hotBase := (q * (n / quanta)) % (n - hotBand)
		for i := 0; i < perQuantum; i++ {
			var id pages.PageID
			if rng.Intn(10) < 7 {
				id = pages.PageID(hotBase + rng.Intn(hotBand))
			} else {
				id = pages.PageID(rng.Intn(n))
			}
			tr.Touch(id)
		}
		tr.Cool()
	}
	return quanta * perQuantum
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func heatAssemble(o Options, results []any) (*Table, error) {
	t := &Table{
		ID:      "heat",
		Title:   "heat-tracking fidelity ablation and region-tracker scale",
		Columns: []string{"arm", "Mops", "latency ratio", "tracker footprint", "notes"},
		Notes: []string{
			"fidelity rows run HeMem on contended GUPS (2x); region/1 is bit-identical to exact (pinned by the golden traces);",
			"the scale row drives the region tracker alone at >=10^7 pages — exact counters would pin 4 bytes/page before any policy state;",
			"per-arm wall-clock timings are in BENCH_heat.json when the runner's BenchDir is set",
		},
	}
	for _, r := range results {
		switch res := r.(type) {
		case heatFidelityResult:
			t.Rows = append(t.Rows, []string{
				"fidelity/" + res.spec,
				fmt.Sprintf("%.1f", res.mops),
				f2(res.latencyRatio),
				formatBytes(res.trackerBytes),
				fmt.Sprintf("%d pages tracked", res.trackedPages),
			})
		case heatScaleResult:
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("scale/pages=%d", res.pages),
				"-",
				"-",
				formatBytes(res.footprint),
				fmt.Sprintf("exact would need %s; %d cells (%.4fx pages) per cooling sweep; %d touches, %d cools, hot checksum %#x",
					formatBytes(res.exactBytes), res.cells, res.sweepPerPage, res.touches, res.cools, res.hotChecksum),
			})
		default:
			return nil, fmt.Errorf("experiments: heat: unexpected result %T", r)
		}
	}
	return t, nil
}

// formatBytes renders a byte count with a binary unit.
func formatBytes(n int64) string {
	switch {
	case n >= memsys.GiB:
		return fmt.Sprintf("%.2fGiB", float64(n)/float64(memsys.GiB))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/float64(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/float64(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
