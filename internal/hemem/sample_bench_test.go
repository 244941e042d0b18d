package hemem

import (
	"testing"

	"colloid/internal/access"
	"colloid/internal/memsys"
	"colloid/internal/migrate"
	"colloid/internal/pages"
	"colloid/internal/sim"
	"colloid/internal/stats"
	"colloid/internal/workloads"
)

// gupsSystem builds vanilla HeMem over a space the size of the paper's
// GUPS testbed, 36,864 pages of 2 MiB under DefaultGUPS weights, and
// warms its counts and lists with 2,000 quanta of PEBS sampling.
func gupsSystem(b *testing.B) (*System, *sim.Context) {
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	g := workloads.DefaultGUPS()
	as, err := pages.NewAddressSpace(topo, g.WorkingSetBytes, pages.HugePageBytes)
	if err != nil {
		b.Fatal(err)
	}
	if err := g.Install(as, stats.NewRNG(1)); err != nil {
		b.Fatal(err)
	}
	ctx := &sim.Context{
		QuantumSec: quantumSec,
		AS:         as,
		Topo:       topo,
		Migrator:   migrate.NewEngine(as, 2, 0),
		Sampler:    access.NewSampler(as, stats.NewRNG(2)),
		RNG:        stats.NewRNG(3),
	}
	s := New(Config{})
	s.ensureTracker(ctx)
	for q := 0; q < 2000; q++ {
		s.samplePEBS(ctx)
	}
	return s, ctx
}

// BenchmarkSamplePEBS times one quantum of HeMem's PEBS sampling on the
// GUPS testbed's space: SampleN's 500 draws, then a Touch and a
// classify for each, with the cooling passes that fall in it. It
// reports ns per sample, a number end-to-end runs mix with everything
// else.
func BenchmarkSamplePEBS(b *testing.B) {
	s, ctx := gupsSystem(b)
	perQuantum := int(sampleRatePerSec * quantumSec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.samplePEBS(ctx)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perQuantum), "ns/sample")
}

// BenchmarkCoolingRebuild times one cooling rebuild of the lists on the
// GUPS testbed's warmed space, where about a third of the pages are
// tracked, and reports ns per page of the space and allocations per
// rebuild, which must stay 0.
func BenchmarkCoolingRebuild(b *testing.B) {
	s, ctx := gupsSystem(b)
	s.rebuildLists(ctx) // sizes the lists for these counts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.rebuildLists(ctx)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(s.state)), "ns/page")
}
