// Package gapbs is a compact reimplementation of the GAP Benchmark
// Suite pieces the paper evaluates (Section 5.3): a CSR graph, a
// synthetic power-law (Twitter-like) graph generator, and the PageRank
// algorithm. The vertex data arrays live in a paged.Arena so that
// really running PageRank yields the page-level access profile —
// skewed by the degree distribution — that drives the memory
// simulation.
package gapbs

import (
	"fmt"
	"math"
	"sort"

	"colloid/internal/paged"
	"colloid/internal/stats"
)

// Graph is a directed graph in CSR form (both directions stored so
// pull-style PageRank can iterate in-neighbors).
type Graph struct {
	numNodes int
	// outDeg[v] is v's out-degree (needed by PageRank).
	outDeg []int32
	// inOff/inEdges: CSR of incoming edges.
	inOff   []int64
	inEdges []int32
}

// NumNodes returns the vertex count.
func (g *Graph) NumNodes() int { return g.numNodes }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int64 { return int64(len(g.inEdges)) }

// OutDegree returns v's out-degree.
func (g *Graph) OutDegree(v int32) int32 { return g.outDeg[v] }

// InNeighbors returns the in-neighbor slice of v (shared storage; do
// not mutate).
func (g *Graph) InNeighbors(v int32) []int32 {
	return g.inEdges[g.inOff[v]:g.inOff[v+1]]
}

// GeneratePowerLaw builds a graph with a Zipf-skewed in/out degree
// structure resembling social graphs (the paper uses the Twitter
// follower graph): each of numNodes*avgDegree edges picks its
// destination from a Zipf distribution over vertices and its source
// uniformly, yielding a heavy-tailed in-degree distribution whose
// high-degree vertices become the hot pages under PageRank.
func GeneratePowerLaw(numNodes int, avgDegree int, skew float64, rng *stats.RNG) (*Graph, error) {
	if numNodes <= 1 || avgDegree <= 0 {
		return nil, fmt.Errorf("gapbs: invalid graph size %d x %d", numNodes, avgDegree)
	}
	if skew <= 0 {
		skew = 0.8
	}
	numEdges := int64(numNodes) * int64(avgDegree)
	zipf := stats.NewZipf(int64(numNodes), skew)
	// Random vertex relabeling so hot vertices scatter across pages
	// (Zipf rank 0..k would otherwise cluster at the start).
	label := rng.Perm(nil, numNodes, numNodes)

	srcs := make([]int32, numEdges)
	dsts := make([]int32, numEdges)
	for i := int64(0); i < numEdges; i++ {
		srcs[i] = int32(rng.Intn(numNodes))
		dsts[i] = label[zipf.Draw(rng)]
	}
	g := &Graph{
		numNodes: numNodes,
		outDeg:   make([]int32, numNodes),
		inOff:    make([]int64, numNodes+1),
	}
	for i := int64(0); i < numEdges; i++ {
		g.outDeg[srcs[i]]++
		g.inOff[dsts[i]+1]++
	}
	for v := 0; v < numNodes; v++ {
		g.inOff[v+1] += g.inOff[v]
	}
	g.inEdges = make([]int32, numEdges)
	cursor := make([]int64, numNodes)
	for i := int64(0); i < numEdges; i++ {
		d := dsts[i]
		g.inEdges[g.inOff[d]+cursor[d]] = srcs[i]
		cursor[d]++
	}
	return g, nil
}

// DegreeStats summarizes the in-degree distribution (for tests that
// assert the generator produces the intended skew).
func (g *Graph) DegreeStats() (maxDeg int64, p99 int64, mean float64) {
	degs := make([]int64, g.numNodes)
	for v := 0; v < g.numNodes; v++ {
		degs[v] = g.inOff[v+1] - g.inOff[v]
	}
	sort.Slice(degs, func(i, j int) bool { return degs[i] < degs[j] })
	maxDeg = degs[len(degs)-1]
	p99 = degs[int(float64(len(degs))*0.99)]
	mean = float64(g.NumEdges()) / float64(g.numNodes)
	return maxDeg, p99, mean
}

// PageRankResult carries the ranks and the recorded access profile.
type PageRankResult struct {
	// Ranks is the final PageRank vector.
	Ranks []float64
	// Iterations actually executed.
	Iterations int
	// Converged reports whether the tolerance was met.
	Converged bool
}

// PageRank runs pull-style PageRank with damping d until the L1 delta
// falls below tol or maxIters is reached. If arena is non-nil, the
// rank array is laid out in it and every rank read is recorded,
// producing the degree-skewed page access profile.
func PageRank(g *Graph, d float64, tol float64, maxIters int, arena *paged.Arena) (*PageRankResult, error) {
	if d <= 0 || d >= 1 {
		return nil, fmt.Errorf("gapbs: damping %v out of (0,1)", d)
	}
	n := g.numNodes
	const rankBytes = 8
	const edgeBytes = 4
	var refs []paged.Ref
	var edgeRef paged.Ref
	if arena != nil {
		refs = make([]paged.Ref, n)
		for v := 0; v < n; v++ {
			r, err := arena.Alloc(rankBytes)
			if err != nil {
				return nil, err
			}
			refs[v] = r
		}
		// The CSR in-edge array dominates the working set; its pages
		// are streamed once per iteration, while rank pages are hit
		// once per in-edge — this byte-vs-touch asymmetry is where
		// PageRank's page-level hot/cold skew comes from.
		er, err := arena.Alloc(g.NumEdges() * edgeBytes)
		if err != nil {
			return nil, err
		}
		edgeRef = er
	}
	ranks := make([]float64, n)
	contrib := make([]float64, n)
	next := make([]float64, n)
	for v := range ranks {
		ranks[v] = 1 / float64(n)
	}
	base := (1 - d) / float64(n)
	res := &PageRankResult{}
	for iter := 0; iter < maxIters; iter++ {
		res.Iterations = iter + 1
		// Precompute outgoing contributions (sequential pass).
		for v := 0; v < n; v++ {
			if deg := g.outDeg[v]; deg > 0 {
				contrib[v] = ranks[v] / float64(deg)
			} else {
				contrib[v] = 0
			}
		}
		// Pull phase: the random-access reads of contrib[u] are the
		// memory traffic PageRank is famous for; record them.
		var delta float64
		for v := 0; v < n; v++ {
			neigh := g.InNeighbors(int32(v))
			if arena != nil && len(neigh) > 0 {
				arena.TouchRangeAt(edgeRef, g.inOff[v]*edgeBytes, int64(len(neigh))*edgeBytes)
			}
			sum := 0.0
			for _, u := range neigh {
				sum += contrib[u]
				if arena != nil {
					arena.Touch(refs[u])
				}
			}
			next[v] = base + d*sum
			delta += math.Abs(next[v] - ranks[v])
		}
		ranks, next = next, ranks
		if delta < tol {
			res.Converged = true
			break
		}
	}
	res.Ranks = ranks
	return res, nil
}
