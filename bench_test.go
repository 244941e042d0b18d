package colloid

// Benchmark harness: one benchmark per paper table/figure. Each
// iteration regenerates the artifact in Quick mode (shorter simulated
// durations; identical shapes) and reports the figure's headline number
// as a custom metric so regressions in reproduction quality are visible
// in benchstat output:
//
//	go test -bench=. -benchmem
//
// For the full-length tables use cmd/colloidsim without -quick.

import (
	"strconv"
	"strings"
	"testing"

	"colloid/internal/core"
	"colloid/internal/experiments"
	"colloid/internal/hemem"
	"colloid/internal/obs"
	"colloid/internal/simtest"
	"colloid/internal/workloads"
)

// runExperiment executes one experiment per benchmark iteration and
// returns the last table for metric extraction.
func runExperiment(b *testing.B, id string) *experiments.Table {
	b.Helper()
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Run(id, experiments.Options{Quick: true, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	return tab
}

// cellFloat parses a numeric cell, tolerating the unit suffixes the
// tables use (M, x, %, GB/s, ns).
func cellFloat(b *testing.B, cell string) float64 {
	b.Helper()
	s := strings.TrimSpace(cell)
	for _, suf := range []string{"Mops", "GB/s", "MB/s", "ns", "M", "x", "%", "B", "s"} {
		s = strings.TrimSuffix(s, suf)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

// BenchmarkFig1 regenerates Figure 1 and reports the worst baseline
// gap from best-case at 3x contention (paper: ~2.3-2.46x).
func BenchmarkFig1(b *testing.B) {
	tab := runExperiment(b, "fig1")
	last := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(cellFloat(b, last[len(last)-1]), "worst-gap-3x")
}

// BenchmarkFig2a reports the default/alternate latency ratio at 3x for
// HeMem's packed placement (paper: ~2.4x).
func BenchmarkFig2a(b *testing.B) {
	tab := runExperiment(b, "fig2a")
	for _, row := range tab.Rows {
		if row[0] == "3x" && row[1] == "hemem" {
			b.ReportMetric(cellFloat(b, row[4]), "latency-ratio-3x")
		}
	}
}

// BenchmarkFig2b reports the best-case default-tier bandwidth share at
// 3x (paper: ~4%).
func BenchmarkFig2b(b *testing.B) {
	tab := runExperiment(b, "fig2b")
	last := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(cellFloat(b, last[1]), "best-default-share-pct-3x")
}

// BenchmarkFig4 regenerates the watermark dynamics trace and reports
// the number of scenarios that converged (want 3).
func BenchmarkFig4(b *testing.B) {
	tab := runExperiment(b, "fig4")
	converged := 3.0
	for _, n := range tab.Notes {
		if strings.Contains(n, "WARNING") {
			converged--
		}
	}
	b.ReportMetric(converged, "scenarios-converged")
}

// BenchmarkFig5 reports HeMem+Colloid's gain over HeMem at 3x (paper:
// ~2.3x).
func BenchmarkFig5(b *testing.B) {
	tab := runExperiment(b, "fig5")
	last := tab.Rows[len(tab.Rows)-1]
	vanilla := cellFloat(b, last[2])
	colloid := cellFloat(b, last[3])
	b.ReportMetric(colloid/vanilla, "hemem-colloid-gain-3x")
}

// BenchmarkFig6a reports HeMem+Colloid's default-tier bandwidth share
// at 3x (paper: single-digit percent, tracking best-case).
func BenchmarkFig6a(b *testing.B) {
	tab := runExperiment(b, "fig6a")
	last := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(cellFloat(b, last[2]), "colloid-default-share-pct-3x")
}

// BenchmarkFig6b reports the latency ratio under Colloid at 3x (paper:
// far below the 2.4x of Figure 2(a)).
func BenchmarkFig6b(b *testing.B) {
	tab := runExperiment(b, "fig6b")
	for _, row := range tab.Rows {
		if row[0] == "3x" && strings.HasPrefix(row[1], "hemem") {
			b.ReportMetric(cellFloat(b, row[4]), "latency-ratio-3x")
		}
	}
}

// BenchmarkFig7 reports HeMem+Colloid's gain at the harshest cell
// (2.7x alternate latency, 3x contention; paper: ~1.76x).
func BenchmarkFig7(b *testing.B) {
	tab := runExperiment(b, "fig7")
	for _, row := range tab.Rows {
		if row[0] == "hemem" && row[1] == "2.7x" {
			b.ReportMetric(cellFloat(b, row[5]), "gain-2.7x-3x")
		}
	}
}

// BenchmarkFig8 reports HeMem+Colloid's gain for 4 KB objects at 0x
// contention (paper: ~1.17-1.31x — the no-antagonist win).
func BenchmarkFig8(b *testing.B) {
	tab := runExperiment(b, "fig8")
	for _, row := range tab.Rows {
		if row[0] == "hemem" && row[1] == "4096B" {
			b.ReportMetric(cellFloat(b, row[2]), "gain-4k-0x")
		}
	}
}

// BenchmarkFig9 reports HeMem+Colloid's convergence time after the
// contention step (paper: ~10 s).
func BenchmarkFig9(b *testing.B) {
	tab := runExperiment(b, "fig9")
	for _, row := range tab.Rows {
		if row[0] == "contention-step" && row[1] == "hemem+colloid" {
			b.ReportMetric(cellFloat(b, row[4]), "conv-sec")
		}
	}
}

// BenchmarkFig10 reports HeMem+Colloid's peak migration rate on the
// hot-set shift (paper: does not exceed vanilla HeMem's peak).
func BenchmarkFig10(b *testing.B) {
	tab := runExperiment(b, "fig10")
	var vanillaPeak, colloidPeak float64
	for _, row := range tab.Rows {
		if row[0] == "hotset-shift@0x" {
			if row[1] == "hemem" {
				vanillaPeak = cellFloat(b, row[2])
			} else {
				colloidPeak = cellFloat(b, row[2])
			}
		}
	}
	if vanillaPeak > 0 {
		b.ReportMetric(colloidPeak/vanillaPeak, "peak-ratio")
	}
}

// BenchmarkFig11a/b/c report the best Colloid gain at 3x for each real
// application (paper: 2.12x GAPBS, 1.25x Silo, 1.93x CacheLib).
func BenchmarkFig11a(b *testing.B) { benchFig11(b, "fig11a") }

// BenchmarkFig11b is the Silo arm of Figure 11.
func BenchmarkFig11b(b *testing.B) { benchFig11(b, "fig11b") }

// BenchmarkFig11c is the CacheLib arm of Figure 11.
func BenchmarkFig11c(b *testing.B) { benchFig11(b, "fig11c") }

func benchFig11(b *testing.B, id string) {
	tab := runExperiment(b, id)
	last := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(cellFloat(b, last[len(last)-1]), "best-gain-3x")
}

// BenchmarkOverhead regenerates the Section 5.1 overhead table.
func BenchmarkOverhead(b *testing.B) {
	tab := runExperiment(b, "overhead")
	b.ReportMetric(float64(len(tab.Rows)), "systems")
}

// BenchmarkRelated regenerates the Section 6 related-work comparison
// and reports Colloid's advantage over the better of BATMAN/Carrefour
// at 3x contention.
func BenchmarkRelated(b *testing.B) {
	tab := runExperiment(b, "related")
	last := tab.Rows[len(tab.Rows)-1]
	batman := cellFloat(b, last[2])
	carrefour := cellFloat(b, last[3])
	colloid := cellFloat(b, last[5])
	best := batman
	if carrefour > best {
		best = carrefour
	}
	b.ReportMetric(colloid/best, "colloid-vs-best-related-3x")
}

// BenchmarkAblation regenerates the mechanism ablations and reports how
// many arms recovered from the contention drop (the watermark-reset arm
// must not).
func BenchmarkAblation(b *testing.B) {
	tab := runExperiment(b, "ablation")
	recovered := 0.0
	for _, row := range tab.Rows {
		if row[len(row)-1] == "true" {
			recovered++
		}
	}
	b.ReportMetric(recovered, "arms-recovered")
}

// BenchmarkSensitivity regenerates the epsilon/delta sensitivity grid
// and reports the throughput spread across the grid (stability check).
func BenchmarkSensitivity(b *testing.B) {
	tab := runExperiment(b, "sens")
	lo, hi := 1e18, 0.0
	for _, row := range tab.Rows {
		v := cellFloat(b, row[2])
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	b.ReportMetric(hi/lo, "grid-spread")
}

// BenchmarkObsOverhead measures instrumentation cost on the paper's
// 60 s GUPS contention run (hemem+colloid). "off" is the uninstrumented
// baseline: a nil registry hands out nil handles whose methods are
// no-ops, so instrumented code pays only a dead branch. "on" attaches a
// live registry with the event trace enabled — the colloidtrace
// -metrics configuration. The acceptance bar is <5% overhead:
//
//	go test -bench=ObsOverhead -count=5 .
func BenchmarkObsOverhead(b *testing.B) {
	run := func(b *testing.B, mkReg func() *obs.Registry) {
		for i := 0; i < b.N; i++ {
			sys := hemem.New(hemem.Config{Colloid: &core.Options{}})
			simtest.Run(b, sys, simtest.Scenario{
				Antagonist: workloads.Intensity3x,
				Seconds:    60,
				Seed:       1,
				Obs:        mkReg(),
			})
		}
	}
	b.Run("off", func(b *testing.B) {
		run(b, func() *obs.Registry { return nil })
	})
	b.Run("on", func(b *testing.B) {
		run(b, func() *obs.Registry {
			r := obs.NewRegistry()
			r.EnableTrace(0)
			return r
		})
	})
}

// BenchmarkTenants runs the multi-tenant cluster experiment (quick arm
// sizes: 8 tenants under both arbitration policies) through the
// standard runner — the `make bench-tenants` CI smoke.
func BenchmarkTenants(b *testing.B) {
	runExperiment(b, "tenants")
}

// BenchmarkHeat runs the heat-tracking family (quick arm sizes: the
// fidelity ablation across region granularities plus the region-tracker
// scale arm) through the standard runner — the `make bench-heat` CI
// smoke.
func BenchmarkHeat(b *testing.B) {
	runExperiment(b, "heat")
}
