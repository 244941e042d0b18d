package experiments

import (
	"fmt"
	"sync"

	"colloid/internal/apps/cachelib"
	"colloid/internal/apps/gapbs"
	"colloid/internal/apps/silo"
	"colloid/internal/memsys"
	"colloid/internal/paged"
	"colloid/internal/sim"
	"colloid/internal/stats"
	"colloid/internal/workloads"
)

func init() {
	for _, app := range []string{"gapbs", "silo", "cachelib"} {
		id := map[string]string{"gapbs": "fig11a", "silo": "fig11b", "cachelib": "fig11c"}[app]
		register(id, &Experiment{
			Title:    fmt.Sprintf("%s end-to-end performance; default tier = WS/3", app),
			Arms:     func(o Options) ([]Arm, error) { return fig11Arms(o, app) },
			Assemble: func(o Options, results []any) (*Table, error) { return fig11Assemble(o, app, results) },
		})
	}
}

// appSetup is one real application prepared for simulation: the access
// profile recorded from actually running it, the traffic profile, and
// the paper's working-set / default-tier sizing.
type appSetup struct {
	weights []float64
	traffic workloads.Profile
	// wsBytes is the paper-scale working set; the default tier is
	// sized to wsBytes/3 per Section 5.3.
	wsBytes int64
	// metric names the application-level performance metric.
	metric string
}

// appCache memoizes profile extraction (building a graph or loading a
// store takes a second or two). Guarded by appMu; buildApp is called
// from Arms() (serial per experiment) but experiments themselves may
// run concurrently.
var (
	appMu    sync.Mutex
	appCache = map[string]*appSetup{}
)

// buildApp runs the scaled application and records its profile. The
// applications run at memory-scaled size; their access *distribution*
// matches the paper's description and is stretched over the
// paper-scale working set (arena page size chosen so the recorded
// page count matches the simulated page count).
func buildApp(name string, seed uint64) (*appSetup, error) {
	key := fmt.Sprintf("%s/%d", name, seed)
	appMu.Lock()
	s, ok := appCache[key]
	appMu.Unlock()
	if ok {
		return s, nil
	}
	rng := stats.NewRNG(seed ^ 0xa99)
	var setup *appSetup
	switch name {
	case "gapbs":
		// PageRank on a synthetic Twitter-like graph. Paper working
		// set ~38 GB with the default tier at ~12.6 GB.
		const wsBytes = 38 * memsys.GiB
		const n, deg = 300_000, 16
		simPages := wsBytes / (2 * memsys.MiB)
		appBytes := int64(n*8) + int64(n*deg*4)
		arena := paged.NewArena(pageSizeFor(appBytes, simPages))
		g, err := gapbs.GeneratePowerLaw(n, deg, 0.8, rng)
		if err != nil {
			return nil, err
		}
		if _, err := gapbs.PageRank(g, 0.85, 1e-9, 4, arena); err != nil {
			return nil, err
		}
		setup = &appSetup{
			weights: arena.Profile(),
			wsBytes: wsBytes,
			metric:  "exec time",
			traffic: workloads.Profile{
				Name:  "gapbs-pr",
				Cores: 15,
				// Mixed pattern: streaming CSR edges (prefetchable)
				// plus random rank lookups.
				Inflight:      6,
				SeqFraction:   0.5,
				WriteFraction: 0.1,
				RequestsPerOp: 1,
			},
		}
	case "silo":
		// YCSB-C over a Zipf keyspace; paper: 400 M keys, ~60 GB.
		const wsBytes = 60 * memsys.GiB
		const keys, ops = 400_000, 2_000_000
		simPages := wsBytes / (2 * memsys.MiB)
		appBytes := int64(keys) * 164
		st, err := silo.NewStore(pageSizeFor(appBytes, simPages), 164)
		if err != nil {
			return nil, err
		}
		if _, err := silo.RunYCSB(st, silo.YCSBConfig{Keys: keys, Skew: 0.99, Ops: ops}, rng); err != nil {
			return nil, err
		}
		setup = &appSetup{
			weights: st.Arena().Profile(),
			wsBytes: wsBytes,
			metric:  "throughput",
			traffic: workloads.Profile{
				Name:          "silo-ycsbc",
				Cores:         15,
				Inflight:      workloads.InflightForObjectSize(192),
				SeqFraction:   workloads.SeqFractionForObjectSize(192),
				WriteFraction: 0.05, // version-word updates
				RequestsPerOp: 3,
			},
		}
	case "cachelib":
		// HeMemKV: 64 B keys, 4 KB values, 20% hot at 90%, GET/UPDATE
		// 90/10; paper working set ~75 GB.
		const wsBytes = 75 * memsys.GiB
		const keys, ops = 40_000, 2_000_000
		simPages := wsBytes / (2 * memsys.MiB)
		appBytes := int64(keys) * 4096
		c, err := cachelib.New(cachelib.Config{
			Shards:        16,
			CapacityItems: keys,
			ValueBytes:    4096,
			PageBytes:     pageSizeFor(appBytes, simPages),
		})
		if err != nil {
			return nil, err
		}
		cfg := cachelib.HeMemKVConfig{Keys: keys, HotFrac: 0.2, HotProb: 0.9, GetFrac: 0.9, Ops: ops}
		if err := cachelib.RunHeMemKV(c, cfg, rng); err != nil {
			return nil, err
		}
		setup = &appSetup{
			weights: c.Arena().Profile(),
			wsBytes: wsBytes,
			metric:  "throughput",
			traffic: workloads.Profile{
				Name:          "cachelib-hememkv",
				Cores:         15,
				Inflight:      workloads.InflightForObjectSize(4096),
				SeqFraction:   workloads.SeqFractionForObjectSize(4096),
				WriteFraction: 0.2, // updates plus eviction writes
				RequestsPerOp: 64,
			},
		}
	default:
		return nil, fmt.Errorf("experiments: unknown app %q", name)
	}
	appMu.Lock()
	appCache[key] = setup
	appMu.Unlock()
	return setup, nil
}

// pageSizeFor picks an arena page size so the app's recorded pages
// roughly match the simulated page count.
func pageSizeFor(appBytes, simPages int64) int64 {
	ps := appBytes / simPages
	if ps < 64 {
		ps = 64
	}
	return ps
}

// Figure 11: throughput (or execution time) of each system with and
// without Colloid across contention intensities, on a topology whose
// default tier is one third of the working set.
//
// Arm layout: [intensity][sys][vanilla, colloid] (stride 6 per
// intensity). The app profile is extracted once in Arms (serial) so
// arms only run the simulation; the setup and topology are read-only
// and safely shared across concurrent arms.
func fig11Arms(o Options, app string) ([]Arm, error) {
	setup, err := buildApp(app, o.Seed)
	if err != nil {
		return nil, err
	}
	defaultTier := memsys.DualSocketXeonDefault()
	defaultTier.CapacityBytes = setup.wsBytes / 3
	remote := memsys.DualSocketXeonRemote()
	remote.CapacityBytes = setup.wsBytes // everything fits in the alternate
	topo := memsys.MustTopology(defaultTier, remote)
	// Round the working set to the placement granularity.
	ws := setup.wsBytes / (2 * memsys.MiB) * (2 * memsys.MiB)

	var arms []Arm
	for _, intensity := range intensities {
		for _, sys := range systemNames {
			for _, withColloid := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/%dx/colloid=%v", app, sys, intensity, withColloid)
				arms = append(arms, Arm{Name: name, Run: func(ctx ArmContext) (any, error) {
					system, err := newSystem(sys, withColloid)
					if err != nil {
						return nil, err
					}
					e, err := sim.New(sim.Config{
						Topology:        topo,
						WorkingSetBytes: ws,
						Profile:         setup.traffic,
						Workload:        &workloads.FromWeights{Weights: setup.weights},
						Antagonist:      intensity,
						Seed:            ctx.Seed,
						Workers:         ctx.Options.ShardWorkers,
						Heat:            ctx.Options.Heat,
						Obs:             ctx.Obs,
					}, sim.WithSystem(system))
					if err != nil {
						return nil, err
					}
					secs := convergeSeconds(sys, ctx.Options)
					if err := e.Run(secs); err != nil {
						return nil, err
					}
					return e.Tenant(0).SteadyState(secs / 3), nil
				}})
			}
		}
	}
	return arms, nil
}

func fig11Assemble(o Options, app string, results []any) (*Table, error) {
	setup, err := buildApp(app, o.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig11-" + app,
		Title:   fmt.Sprintf("%s end-to-end performance (%s); default tier = WS/3", app, setup.metric),
		Columns: []string{"intensity", "hemem", "+colloid", "tpp", "+colloid", "memtis", "+colloid", "best gain"},
		Notes: []string{
			"paper gains at high contention: GAPBS up to 1.92x/1.48x/2.12x,",
			"Silo up to 1.25x/1.17x/1.17x, CacheLib up to 1.74x/1.79x/1.93x (HeMem/TPP/MEMTIS)",
		},
	}
	i := 0
	for _, intensity := range intensities {
		row := []string{fmt.Sprintf("%dx", intensity)}
		bestGain := 0.0
		for range systemNames {
			vanilla := steadyAt(results, i)
			colloid := steadyAt(results, i+1)
			i += 2
			row = append(row, fOps(vanilla.OpsPerSec), fOps(colloid.OpsPerSec))
			if g := colloid.OpsPerSec / vanilla.OpsPerSec; g > bestGain {
				bestGain = g
			}
		}
		row = append(row, fX(bestGain))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
