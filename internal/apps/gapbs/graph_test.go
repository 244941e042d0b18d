package gapbs

import (
	"math"
	"reflect"
	"testing"

	"colloid/internal/paged"
	"colloid/internal/stats"
)

func testGraph(t *testing.T, n, deg int) *Graph {
	t.Helper()
	g, err := GeneratePowerLaw(n, deg, 0.8, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenerateShape(t *testing.T) {
	g := testGraph(t, 10000, 16)
	if g.NumNodes() != 10000 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 160000 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	// CSR consistency: offsets monotone, last offset = edge count.
	var sumIn int64
	for v := 0; v < g.NumNodes(); v++ {
		sumIn += int64(len(g.InNeighbors(int32(v))))
	}
	if sumIn != g.NumEdges() {
		t.Fatalf("in-degree sum %d != edges %d", sumIn, g.NumEdges())
	}
	var sumOut int64
	for v := 0; v < g.NumNodes(); v++ {
		sumOut += int64(g.OutDegree(int32(v)))
	}
	if sumOut != g.NumEdges() {
		t.Fatalf("out-degree sum %d != edges %d", sumOut, g.NumEdges())
	}
}

func TestGenerateSkew(t *testing.T) {
	g := testGraph(t, 10000, 16)
	maxDeg, p99, mean := g.DegreeStats()
	if float64(maxDeg) < 20*mean {
		t.Fatalf("max in-degree %d not heavy-tailed (mean %.1f)", maxDeg, mean)
	}
	if p99 <= int64(mean) {
		t.Fatalf("p99 degree %d <= mean %v", p99, mean)
	}
}

func TestGenerateErrors(t *testing.T) {
	rng := stats.NewRNG(1)
	if _, err := GeneratePowerLaw(1, 16, 0.8, rng); err == nil {
		t.Fatal("1-node graph accepted")
	}
	if _, err := GeneratePowerLaw(100, 0, 0.8, rng); err == nil {
		t.Fatal("0-degree graph accepted")
	}
}

func TestPageRankConverges(t *testing.T) {
	g := testGraph(t, 5000, 16)
	res, err := PageRank(g, 0.85, 1e-6, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations", res.Iterations)
	}
	// Ranks are a probability-ish vector: positive, sums near 1.
	sum := 0.0
	for _, r := range res.Ranks {
		if r <= 0 {
			t.Fatal("non-positive rank")
		}
		sum += r
	}
	if math.Abs(sum-1) > 0.05 {
		t.Fatalf("rank sum = %v (dangling mass loss acceptable but small)", sum)
	}
}

func TestPageRankRanksFollowDegree(t *testing.T) {
	g := testGraph(t, 5000, 16)
	res, err := PageRank(g, 0.85, 1e-6, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The max in-degree vertex should outrank the median vertex.
	maxV, maxDeg := 0, 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := len(g.InNeighbors(int32(v))); d > maxDeg {
			maxDeg, maxV = d, v
		}
	}
	median := res.Ranks[len(res.Ranks)/2]
	if res.Ranks[maxV] < 5*median {
		t.Fatalf("hub rank %v vs median %v: insufficient separation", res.Ranks[maxV], median)
	}
}

func TestPageRankRecordsSkewedProfile(t *testing.T) {
	g := testGraph(t, 20000, 16)
	arena := paged.NewArena(4096) // 512 ranks per page
	if _, err := PageRank(g, 0.85, 1e-9, 3, arena); err != nil {
		t.Fatal(err)
	}
	prof := arena.Profile()
	if len(prof) == 0 {
		t.Fatal("no pages recorded")
	}
	var maxC, sum float64
	for _, c := range prof {
		if c > maxC {
			maxC = c
		}
		sum += c
	}
	mean := sum / float64(len(prof))
	// Rank pages are touched per in-edge, edge pages once per vertex
	// range per iteration: the skew must show up at page granularity.
	if maxC < 5*mean {
		t.Fatalf("profile not skewed: max %v mean %v", maxC, mean)
	}
	// Rank reads alone contribute one touch per in-edge per iteration;
	// edge-range touches add more.
	if sum < float64(g.NumEdges())*3 {
		t.Fatalf("touches = %v, want >= %v", sum, float64(g.NumEdges())*3)
	}
}

func TestPageRankInvalidDamping(t *testing.T) {
	g := testGraph(t, 100, 4)
	if _, err := PageRank(g, 1.5, 1e-6, 10, nil); err == nil {
		t.Fatal("damping 1.5 accepted")
	}
}

func TestDeterministicKernels(t *testing.T) {
	g1, _ := GeneratePowerLaw(1000, 8, 0.8, stats.NewRNG(5))
	g2, _ := GeneratePowerLaw(1000, 8, 0.8, stats.NewRNG(5))
	r1, err1 := PageRank(g1, 0.85, 1e-6, 100, nil)
	r2, err2 := PageRank(g2, 0.85, 1e-6, 100, nil)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Iterations != r2.Iterations || !reflect.DeepEqual(r1.Ranks, r2.Ranks) {
		t.Fatal("PageRank nondeterministic across identical seeds")
	}
}
