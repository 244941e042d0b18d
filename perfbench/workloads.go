package main

import (
	"fmt"

	"colloid/internal/core"
	"colloid/internal/heat"
	"colloid/internal/hemem"
	"colloid/internal/memsys"
	"colloid/internal/memtis"
	"colloid/internal/obs"
	"colloid/internal/pages"
	"colloid/internal/scenario"
	"colloid/internal/sim"
	"colloid/internal/stats"
	"colloid/internal/tenant"
	"colloid/internal/tpp"
	"colloid/internal/workloads"
)

// quantumSec is the engine step every workload runs at (sim.Config's
// default, HeMem's migration quantum).
const quantumSec = 0.01

// System kinds, indexing the per-system layer metrics.
const (
	kindHemem = iota
	kindTPP
	kindMemtis
	numKinds
)

var kindNames = [numKinds]string{"hemem", "tpp", "memtis"}

// shiftFunc is the signature of a scenario.WorkloadShift function.
type shiftFunc = func(as *pages.AddressSpace, rng *stats.RNG)

// hooks are the traced run's attachment points into a workload as it is
// built. The zero value builds the plain, untraced workload: no obs
// registry, systems installed as they are, shifts called directly.
type hooks struct {
	obs *obs.Registry
	// wrap replaces tenant i's system (kind is one of the kind* indices).
	wrap func(i, kind int, s sim.System) sim.System
	// shift replaces tenant i's workload-shift function.
	shift func(i int, fn shiftFunc) shiftFunc
}

func (h hooks) system(i, kind int, s sim.System) sim.System {
	if h.wrap == nil {
		return s
	}
	return h.wrap(i, kind, s)
}

func (h hooks) shiftFn(i int, fn shiftFunc) shiftFunc {
	if h.shift == nil {
		return fn
	}
	return h.shift(i, fn)
}

// instance is one built workload, ready to step.
type instance struct {
	eng  *sim.Engine
	step func() error
	// systems are per tenant, in name order, unwrapped (for Stats()).
	systems []sim.System
	// wss is each tenant's working set, for the placement check.
	wss []int64
}

// workload is one benchmark input: a build function for the real engine plus
// the fixed episode length every run of it steps.
type workload struct {
	name   string
	quanta int
	// seeds is how many seeds, derived from the run's, a plain run cycles
	// its episodes through. One is enough where the seed hardly moves a
	// timed figure. memtis-1m's p99 rests on its cooling quanta (every
	// 50th), whose cost moves with the seed's draw: with eight seeds a run
	// the p99 of ten runs spread 0.18 of its median, with 24 it spread
	// 0.10.
	seeds int
	build func(seed uint64, quanta int, h hooks) (*instance, error)
}

// workloadList is every workload the benchmark knows, in BENCHMARK.json
// order.
var workloadList = []workload{
	{
		name:   "paper-gups",
		quanta: 2000,
		seeds:  1,
		build:  buildPaperGUPS,
	},
	{
		name:   "memtis-1m",
		quanta: 1600,
		seeds:  24,
		build:  buildMemtis1M,
	},
	{
		name:   "cluster-100",
		quanta: 1000,
		seeds:  1,
		build:  buildCluster100,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloadList))
	for i, w := range workloadList {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// colloid returns the paper's Colloid settings (epsilon 0.01, delta
// 0.05), fresh per system.
func colloid() *core.Options { return &core.Options{Epsilon: 0.01, Delta: 0.05} }

// buildPaperGUPS is the paper's Section 2.1 testbed: a 72 GiB GUPS
// working set of 2 MiB pages with a 24 GiB hot set, one hemem+colloid
// instance with exact heat tracking, and an antagonist that switches
// between 0x and 3x every 10 s.
func buildPaperGUPS(seed uint64, quanta int, h hooks) (*instance, error) {
	g := workloads.DefaultGUPS()
	sys := hemem.New(hemem.Config{Colloid: colloid()})
	opts := []sim.Option{sim.WithSystem(h.system(0, kindHemem, sys))}
	if wave := scenario.AntagonistSquareWave(workloads.Intensity0x, workloads.Intensity3x, 10, float64(quanta)*quantumSec); len(wave.Events) > 0 {
		opts = append(opts, sim.WithScenario(wave))
	}
	e, err := sim.New(sim.Config{
		Topology:        memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote()),
		WorkingSetBytes: g.WorkingSetBytes,
		Profile:         g.Profile(),
		QuantumSec:      quantumSec,
		Seed:            seed,
		Workers:         1,
		Obs:             h.obs,
	}, opts...)
	if err != nil {
		return nil, err
	}
	if err := g.Install(e.AS(), e.WorkloadRNG()); err != nil {
		return nil, err
	}
	return &instance{eng: e, step: e.Step, systems: []sim.System{sys}, wss: []int64{g.WorkingSetBytes}}, nil
}

// buildMemtis1M is the 10^6-page point on the real engine: 2^20 4 KiB
// pages (4 GiB) with a hot third, a default tier half the working set,
// one memtis+colloid instance on region/64 heat, a constant 3x
// antagonist, and a fresh random hot set every 15 s.
func buildMemtis1M(seed uint64, quanta int, h hooks) (*instance, error) {
	const pageBytes = 4 << 10
	wss := int64(1<<20) * pageBytes
	g := &workloads.GUPS{WorkingSetBytes: wss, HotSetBytes: wss / 3, HotProb: 0.9, ObjectBytes: 64, Cores: 15}
	fast := memsys.DualSocketXeonDefault()
	fast.CapacityBytes = wss / 2
	sys := memtis.New(memtis.Config{Colloid: colloid()})
	opts := []sim.Option{sim.WithSystem(h.system(0, kindMemtis, sys))}
	shifts := &scenario.Scenario{Name: "hot-set-shift"}
	shift := h.shiftFn(0, g.ShiftHotSet)
	for at := 15.0; at < float64(quanta)*quantumSec; at += 15 {
		shifts.Events = append(shifts.Events, scenario.WorkloadShift{AtSec: at, Shift: shift})
	}
	if len(shifts.Events) > 0 {
		opts = append(opts, sim.WithScenario(shifts))
	}
	e, err := sim.New(sim.Config{
		Topology:        memsys.MustTopology(fast, memsys.DualSocketXeonRemote()),
		WorkingSetBytes: wss,
		PageBytes:       pageBytes,
		Profile:         g.Profile(),
		Antagonist:      workloads.Intensity3x,
		Heat:            heat.Spec{Kind: heat.Region, RegionPages: 64},
		QuantumSec:      quantumSec,
		Seed:            seed,
		Workers:         1,
		Obs:             h.obs,
	}, opts...)
	if err != nil {
		return nil, err
	}
	if err := g.Install(e.AS(), e.WorkloadRNG()); err != nil {
		return nil, err
	}
	return &instance{eng: e, step: e.Step, systems: []sim.System{sys}, wss: []int64{wss}}, nil
}

// buildCluster100 is 100 GUPS tenants of 2,000 64 KiB pages under the
// shared-watermark policy, with a default tier holding a quarter of the
// combined working set and a 2x antagonist. Tenant i runs hemem, tpp or
// memtis by i mod 3, all with Colloid; its QoS class cycles premium,
// standard, best-effort by (i/3) mod 3, so every system meets every class
// and heat tracker (the tenants experiment's qos mode: premium exact,
// standard region/64, best-effort the region/1024 default).
func buildCluster100(seed uint64, _ int, h hooks) (*instance, error) {
	const (
		numTenants = 100
		pagesEach  = 2000
		pageBytes  = 64 << 10
	)
	wss := int64(pagesEach) * pageBytes
	total := int64(numTenants) * wss
	fast := memsys.DualSocketXeonDefault()
	fast.CapacityBytes = total / 4
	slow := memsys.DualSocketXeonRemote()
	slow.CapacityBytes = total * 5 / 2
	classes := []tenant.Class{tenant.Premium, tenant.Standard, tenant.BestEffort}
	classHeat := map[tenant.Class]*heat.Spec{
		tenant.Premium:  {},
		tenant.Standard: {Kind: heat.Region, RegionPages: 64},
	}
	inst := &instance{}
	tenants := make([]tenant.Tenant, numTenants)
	for i := range tenants {
		g := &workloads.GUPS{WorkingSetBytes: wss, HotSetBytes: wss / 3, HotProb: 0.9, ObjectBytes: 64, Cores: 1}
		kind := i % numKinds
		var sys sim.System
		switch kind {
		case kindHemem:
			sys = hemem.New(hemem.Config{Colloid: colloid()})
		case kindTPP:
			sys = tpp.New(tpp.Config{Colloid: colloid()})
		default:
			sys = memtis.New(memtis.Config{Colloid: colloid()})
		}
		class := classes[(i/3)%len(classes)]
		// Zero-padded names sort in index order, so i is also the
		// tenant's engine index.
		tenants[i] = tenant.Tenant{
			Name:            fmt.Sprintf("t%03d", i),
			WorkingSetBytes: wss,
			Profile:         g.Profile(),
			System:          h.system(i, kind, sys),
			Class:           class,
			Workload:        g,
			Heat:            classHeat[class],
		}
		inst.systems = append(inst.systems, sys)
		inst.wss = append(inst.wss, wss)
	}
	c, err := tenant.New(tenant.Config{
		Topology:   memsys.MustTopology(fast, slow),
		Tenants:    tenants,
		Policy:     tenant.SharedWatermark,
		PageBytes:  pageBytes,
		QuantumSec: quantumSec,
		Seed:       seed,
		Workers:    1,
		Antagonist: workloads.Intensity2x,
		Heat:       heat.Spec{Kind: heat.Region, RegionPages: 1024},
		Obs:        h.obs,
	})
	if err != nil {
		return nil, err
	}
	inst.eng = c.Engine()
	inst.step = c.Step
	return inst, nil
}
