package main

import "testing"

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 over 999 samples was accepted")
	}
	if v, err := percentile(xs, 0.99); err != nil || v != 990 {
		t.Fatalf("p99 over 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(xs[:19], 0.50); err == nil {
		t.Fatal("p50 over 19 samples was accepted")
	}
	if v, err := percentile(xs[:20], 0.50); err != nil || v != 10 {
		t.Fatalf("p50 over 1..20 = %v, %v; want 10", v, err)
	}
}

// testQuanta keeps each workload's test episode to about a second while
// still crossing its disturbance: paper-gups's antagonist steps to 3x at
// 10 s and memtis-1m's hot set shifts at 15 s.
var testQuanta = map[string]int{"paper-gups": 1100, "memtis-1m": 1600, "cluster-100": 60}

func TestTracingKeepsDigest(t *testing.T) {
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			plain, _, err := runEpisode(w, testQuanta[w.name], 5, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, _, err := runEpisode(w, testQuanta[w.name], 5, newTracer(5), nil)
			if err != nil {
				t.Fatal(err)
			}
			if plain.failed != 0 || traced.failed != 0 {
				t.Fatalf("failed quanta: plain %d, traced %d", plain.failed, traced.failed)
			}
			if traced.digest != plain.digest || traced.modelMops != plain.modelMops {
				t.Fatalf("traced episode digest %016x (%v Mops), plain %016x (%v Mops)",
					traced.digest, traced.modelMops, plain.digest, plain.modelMops)
			}
			yard, _, err := runEpisode(w, testQuanta[w.name], 5, nil, newYardstick())
			if err != nil {
				t.Fatal(err)
			}
			if yard.digest != plain.digest || len(yard.normNs) != len(yard.stepNs) {
				t.Fatalf("with yardstick slices: digest %016x, plain %016x; %d normalised of %d steps",
					yard.digest, plain.digest, len(yard.normNs), len(yard.stepNs))
			}
		})
	}
}

func TestSolveReplayMatches(t *testing.T) {
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			tr := newTracer(9)
			ep, _, err := runEpisode(w, testQuanta[w.name], 9, tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tr.quanta != testQuanta[w.name] || ep.failed != 0 {
				t.Fatalf("traced %d of %d quanta, %d failed", tr.quanta, testQuanta[w.name], ep.failed)
			}
			if tr.mismatches != 0 {
				t.Fatalf("Solve replay differs from the engine on %d of %d quanta", tr.mismatches, tr.quanta)
			}
			if tr.overruns != 0 {
				t.Fatalf("system spans exceed their quantum on %d quanta", tr.overruns)
			}
			if w.name == "memtis-1m" && len(tr.shiftMs) == 0 {
				t.Fatal("the episode crossed no hot-set shift")
			}
		})
	}
}
