// Package workloads defines the memory workloads used throughout the
// evaluation: the GUPS microbenchmark (Section 2.1), the sequential
// memory antagonist that generates memory interconnect contention, and
// replays of the per-page access histograms recorded from the executed
// applications in internal/apps. A workload supplies two things:
// per-page access weights over an address space, and the closed-loop
// traffic profile (cores, per-core memory-level parallelism, access
// pattern, read/write mix) the simulator's solver consumes.
package workloads

import (
	"fmt"
	"math"

	"colloid/internal/memsys"
	"colloid/internal/pages"
	"colloid/internal/stats"
)

// Profile describes a closed-loop application traffic source.
type Profile struct {
	// Name labels the workload.
	Name string
	// Cores driving the workload.
	Cores int
	// Inflight is average in-flight memory requests per core.
	Inflight float64
	// SeqFraction of the traffic that is sequential.
	SeqFraction float64
	// WriteFraction is writebacks per demand read.
	WriteFraction float64
	// RequestsPerOp converts memory request rate to application
	// operations/sec (an op touching a 4 KB object issues 64 cacheline
	// requests).
	RequestsPerOp float64
}

// Source renders the profile as a solver source with the given per-tier
// request shares.
func (p Profile) Source(tierShare []float64) memsys.Source {
	return memsys.Source{
		Name:            p.Name,
		Cores:           p.Cores,
		Inflight:        p.Inflight,
		TierShare:       tierShare,
		SeqFraction:     p.SeqFraction,
		WriteFraction:   p.WriteFraction,
		BytesPerRequest: memsys.CachelineBytes,
	}
}

// OpsPerSec converts a demand-read rate into application operations.
func (p Profile) OpsPerSec(requestRate float64) float64 {
	if p.RequestsPerOp <= 0 {
		return requestRate
	}
	return requestRate / p.RequestsPerOp
}

// baseInflight is the effective per-core memory-level parallelism of a
// random 64 B access stream on the paper's testbed (canonical value in
// internal/memsys, calibrated there); prefetchers raise it for larger
// objects with the (size/64)^0.25 law implied by Figure 8's measurement
// that 4 KB objects sustain 2.82x more in-flight L3 misses than 64 B
// objects.
const baseInflight = memsys.GUPSInflight

// InflightForObjectSize returns the effective per-core in-flight
// request count for the given object size.
func InflightForObjectSize(objectBytes int64) float64 {
	if objectBytes < memsys.CachelineBytes {
		objectBytes = memsys.CachelineBytes
	}
	return baseInflight * math.Pow(float64(objectBytes)/memsys.CachelineBytes, 0.25)
}

// SeqFractionForObjectSize returns the sequential fraction of traffic
// for objects of the given size: all cachelines of an object after the
// first are sequential.
func SeqFractionForObjectSize(objectBytes int64) float64 {
	if objectBytes <= memsys.CachelineBytes {
		return 0
	}
	return 1 - memsys.CachelineBytes/float64(objectBytes)
}

// GUPS is the paper's primary microbenchmark: threads read and update
// (1:1) objects chosen from a hot set with HotProb probability and from
// the full working set otherwise (Section 2.1).
type GUPS struct {
	// WorkingSetBytes is the full buffer size (72 GB in the paper).
	WorkingSetBytes int64
	// HotSetBytes is the hot region size (24 GB in the paper).
	HotSetBytes int64
	// HotProb is the probability an access targets the hot set (0.9).
	HotProb float64
	// ObjectBytes is the object size (64 B default; Figure 8 sweeps it).
	ObjectBytes int64
	// Cores running application threads (15 in the paper).
	Cores int

	hot  []bool // indexed by page ID
	nHot int
}

// DefaultGUPS returns the Section 2.1 configuration.
func DefaultGUPS() *GUPS {
	return &GUPS{
		WorkingSetBytes: 72 * memsys.GiB,
		HotSetBytes:     24 * memsys.GiB,
		HotProb:         0.9,
		ObjectBytes:     64,
		Cores:           15,
	}
}

// Validate checks the configuration.
func (g *GUPS) Validate() error {
	switch {
	case g.WorkingSetBytes <= 0 || g.HotSetBytes <= 0:
		return fmt.Errorf("workloads: GUPS sizes must be positive")
	case g.HotSetBytes > g.WorkingSetBytes:
		return fmt.Errorf("workloads: hot set larger than working set")
	case g.HotProb < 0 || g.HotProb > 1:
		return fmt.Errorf("workloads: hot probability %v out of [0,1]", g.HotProb)
	case g.ObjectBytes < memsys.CachelineBytes:
		return fmt.Errorf("workloads: object size below one cacheline")
	case g.Cores <= 0:
		return fmt.Errorf("workloads: cores must be positive")
	}
	return nil
}

// Profile returns the traffic profile for the configured object size.
func (g *GUPS) Profile() Profile {
	return Profile{
		Name:          "gups",
		Cores:         g.Cores,
		Inflight:      InflightForObjectSize(g.ObjectBytes),
		SeqFraction:   SeqFractionForObjectSize(g.ObjectBytes),
		WriteFraction: 1, // 1:1 read/write ratio
		RequestsPerOp: float64(g.ObjectBytes) / memsys.CachelineBytes,
	}
}

// Install chooses a random hot set and assigns page weights:
// hot pages share HotProb plus their share of the uniform (1-HotProb)
// mass over the full working set; cold pages get only the uniform mass.
func (g *GUPS) Install(as *pages.AddressSpace, rng *stats.RNG) error {
	if err := g.Validate(); err != nil {
		return err
	}
	n := as.NumPages()
	if n == 0 {
		return fmt.Errorf("workloads: empty address space")
	}
	nHot := int(g.HotSetBytes / as.Get(0).Bytes)
	if nHot <= 0 || nHot > n {
		return fmt.Errorf("workloads: hot set of %d pages infeasible over %d pages", nHot, n)
	}
	g.shift(as, rng, nHot)
	return nil
}

// ShiftHotSet instantaneously replaces the hot set with a fresh random
// one (the Figure 9 access-pattern dynamism: old hot pages become cold,
// a different random set becomes hot).
func (g *GUPS) ShiftHotSet(as *pages.AddressSpace, rng *stats.RNG) {
	g.shift(as, rng, int(g.HotSetBytes/as.Get(0).Bytes))
}

// shift draws a hot set of nHot pages, the first nHot entries of a
// random permutation of the page IDs, and reweights every page in one
// pass. Once the hot-set marks exist, the permutation's prefix is the
// only allocation, and it is dropped on return, so nothing of it stays
// live between shifts.
func (g *GUPS) shift(as *pages.AddressSpace, rng *stats.RNG, nHot int) {
	n := as.NumPages()
	perm := rng.Perm(nil, n, nHot)
	if cap(g.hot) < n {
		g.hot = make([]bool, n)
	} else {
		g.hot = g.hot[:n]
		clear(g.hot)
	}
	for _, id := range perm {
		g.hot[id] = true
	}
	g.nHot = len(perm)
	coldW := (1 - g.HotProb) / float64(n)
	hotW := g.HotProb/float64(g.nHot) + coldW
	// Indexing by hotness, with the index set by a conditional move,
	// spares a misprediction on each of the random hot pages.
	ws := [2]float64{coldW, hotW}
	as.SetWeights(func(id pages.PageID) float64 {
		hot := 0
		if g.hot[id] {
			hot = 1
		}
		return ws[hot]
	})
}

// IsHot reports whether the page is currently in the hot set.
func (g *GUPS) IsHot(id pages.PageID) bool {
	return id >= 0 && int(id) < len(g.hot) && g.hot[id]
}

// HotPages returns the current number of hot pages.
func (g *GUPS) HotPages() int { return g.nHot }

// Antagonist models the memory antagonist of Section 2.1: cores
// streaming 1:1 read/write traffic to a small buffer pinned in the
// default tier. Intensities 0x/1x/2x/3x correspond to 0/5/10/15 cores.
type Antagonist struct {
	// Cores running antagonist threads.
	Cores int
}

// Intensity is the paper's antagonist contention scale (Section 2.1):
// 0x through 3x, each step adding CoresPerIntensity streaming cores.
type Intensity int

// The four intensities evaluated in the paper.
const (
	Intensity0x Intensity = 0
	Intensity1x Intensity = 1
	Intensity2x Intensity = 2
	Intensity3x Intensity = 3
)

// CoresPerIntensity is the antagonist core count added per intensity
// step (5 cores: 1x/2x/3x run 5/10/15 cores).
const CoresPerIntensity = 5

// Cores returns the antagonist core count for the intensity; negative
// intensities clamp to zero.
func (i Intensity) Cores() int {
	if i < 0 {
		return 0
	}
	return CoresPerIntensity * int(i)
}

// String renders the intensity in the paper's Nx notation.
func (i Intensity) String() string { return fmt.Sprintf("%dx", int(i)) }

// AntagonistForIntensity maps the paper's 0x-3x intensity scale to an
// antagonist (5 cores per step).
func AntagonistForIntensity(intensity Intensity) Antagonist {
	return Antagonist{Cores: intensity.Cores()}
}

// Source renders the antagonist as a solver source pinned to the
// default tier of a numTiers topology.
func (a Antagonist) Source(numTiers int) memsys.Source {
	share := make([]float64, numTiers)
	share[memsys.DefaultTier] = 1
	src := memsys.AntagonistSource(a.Cores)
	src.TierShare = share
	return src
}
