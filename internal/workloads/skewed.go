package workloads

import (
	"fmt"
	"sort"

	"colloid/internal/memsys"
	"colloid/internal/pages"
	"colloid/internal/stats"
)

// ZipfKV assigns page weights matching a key-value store whose keys are
// accessed with a Zipfian distribution and stored hashed across pages —
// the Silo YCSB-C workload of Section 5.3. The head of the Zipf (the
// hottest HeadRanks keys) is assigned to random pages individually; the
// tail mass is spread uniformly, which is accurate because tail keys
// are numerous and hashing mixes them evenly.
type ZipfKV struct {
	// Keys in the keyspace (400 million for Silo in the paper).
	Keys int64
	// Skew is the Zipf exponent (YCSB default 0.99).
	Skew float64
	// HeadRanks is how many top keys are placed individually.
	HeadRanks int64
	// Cores and ObjectBytes shape the traffic profile.
	Cores int
	// ObjectBytes is the record size touched per operation.
	ObjectBytes int64
	// WriteFraction is writebacks per read (YCSB-C is read-only: 0).
	WriteFraction float64
}

// DefaultSiloYCSBC returns the paper's Silo configuration: 400 M
// key-value pairs of ~164 B (64 B keys + 100 B values), read-only
// Zipfian lookups from 15 cores.
func DefaultSiloYCSBC() *ZipfKV {
	return &ZipfKV{
		Keys:          400_000_000,
		Skew:          0.99,
		HeadRanks:     1 << 16,
		Cores:         15,
		ObjectBytes:   192, // a 164 B record spans 3 cachelines
		WriteFraction: 0,
	}
}

// Profile returns the traffic profile.
func (z *ZipfKV) Profile() Profile {
	return Profile{
		Name:          "zipf-kv",
		Cores:         z.Cores,
		Inflight:      InflightForObjectSize(z.ObjectBytes),
		SeqFraction:   SeqFractionForObjectSize(z.ObjectBytes),
		WriteFraction: z.WriteFraction,
		RequestsPerOp: float64(z.ObjectBytes) / memsys.CachelineBytes,
	}
}

// Install assigns Zipf-derived weights to pages.
func (z *ZipfKV) Install(as *pages.AddressSpace, rng *stats.RNG) error {
	if z.Keys <= 0 || z.Skew <= 0 {
		return fmt.Errorf("workloads: invalid ZipfKV config")
	}
	ids := as.LiveIDs()
	if len(ids) == 0 {
		return fmt.Errorf("workloads: empty address space")
	}
	zipf := stats.NewZipf(z.Keys, z.Skew)
	head := z.HeadRanks
	if head > z.Keys {
		head = z.Keys
	}
	weights := make([]float64, len(ids))
	// Hot head keys land on random pages.
	for rank := int64(0); rank < head; rank++ {
		weights[rng.Intn(len(ids))] += zipf.RankProb(rank)
	}
	// Tail mass spreads uniformly.
	tail := 1 - zipf.HeadMass(head)
	per := tail / float64(len(ids))
	for i := range weights {
		weights[i] += per
	}
	for i, id := range ids {
		as.SetWeight(id, weights[i])
	}
	return nil
}

// HotCold assigns page weights for a two-level distribution: HotFrac of
// pages receive HotProb of the accesses uniformly, the rest receive the
// remainder — the CacheLib HeMemKV workload of Section 5.3 (20% of keys
// hot, accessed with 90% probability).
type HotCold struct {
	// HotFrac is the fraction of pages in the hot set.
	HotFrac float64
	// HotProb is the probability an access targets the hot set.
	HotProb float64
	// Cores and ObjectBytes shape the traffic profile.
	Cores       int
	ObjectBytes int64
	// WriteFraction is writebacks per read (GET/UPDATE 90/10 -> 0.1).
	WriteFraction float64

	hot []bool // indexed by page ID
}

// DefaultCacheLib returns the paper's CacheLib configuration: 64 B keys
// with 4 KB values, 20% hot keys at 90% probability, GET/UPDATE 90/10,
// 15 cores.
func DefaultCacheLib() *HotCold {
	return &HotCold{
		HotFrac:       0.2,
		HotProb:       0.9,
		Cores:         15,
		ObjectBytes:   4096,
		WriteFraction: 0.1,
	}
}

// Profile returns the traffic profile.
func (h *HotCold) Profile() Profile {
	return Profile{
		Name:          "hotcold",
		Cores:         h.Cores,
		Inflight:      InflightForObjectSize(h.ObjectBytes),
		SeqFraction:   SeqFractionForObjectSize(h.ObjectBytes),
		WriteFraction: h.WriteFraction,
		RequestsPerOp: float64(h.ObjectBytes) / memsys.CachelineBytes,
	}
}

// Install picks the hot set at random and assigns weights.
func (h *HotCold) Install(as *pages.AddressSpace, rng *stats.RNG) error {
	if h.HotFrac <= 0 || h.HotFrac >= 1 || h.HotProb < 0 || h.HotProb > 1 {
		return fmt.Errorf("workloads: invalid HotCold config")
	}
	n := as.NumPages()
	if n == 0 {
		return fmt.Errorf("workloads: empty address space")
	}
	nHot := int(h.HotFrac * float64(n))
	if nHot == 0 {
		nHot = 1
	}
	h.hot, _ = markHot(h.hot, rng.Perm(n), nHot)
	hotW := h.HotProb / float64(nHot)
	coldW := (1 - h.HotProb) / float64(n-nHot)
	for id, hot := range h.hot {
		if hot {
			as.SetWeight(pages.PageID(id), hotW)
		} else {
			as.SetWeight(pages.PageID(id), coldW)
		}
	}
	return nil
}

// FromWeights installs an explicit weight vector (normalized), used to
// replay access profiles recorded from the real applications in
// internal/apps. Weights are matched to pages in ID order; if the
// profile has fewer entries than pages, remaining pages get zero
// weight; excess entries are folded uniformly over all pages.
type FromWeights struct {
	// Name labels the workload.
	Name string
	// Weights is the recorded per-page access histogram (any scale).
	Weights []float64
	// Traffic is the profile to present to the solver.
	Traffic Profile
}

// Profile returns the traffic profile.
func (f *FromWeights) Profile() Profile { return f.Traffic }

// Install normalizes and applies the weights.
func (f *FromWeights) Install(as *pages.AddressSpace, _ *stats.RNG) error {
	ids := as.LiveIDs()
	if len(ids) == 0 {
		return fmt.Errorf("workloads: empty address space")
	}
	if len(f.Weights) == 0 {
		return fmt.Errorf("workloads: empty weight profile")
	}
	total := 0.0
	for _, w := range f.Weights {
		if w < 0 {
			return fmt.Errorf("workloads: negative weight in profile")
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("workloads: profile has no mass")
	}
	n := len(f.Weights)
	if n > len(ids) {
		n = len(ids)
	}
	var overflow float64
	for i := n; i < len(f.Weights); i++ {
		overflow += f.Weights[i]
	}
	per := overflow / total / float64(len(ids))
	for i, id := range ids {
		w := per
		if i < n {
			w += f.Weights[i] / total
		}
		as.SetWeight(id, w)
	}
	return nil
}

// SortedPageWeights returns the pages' weights in descending
// order; useful for reporting skew in examples and tests.
func SortedPageWeights(as *pages.AddressSpace) []float64 {
	var ws []float64
	as.ForEachLive(func(p pages.Page) { ws = append(ws, p.Weight) })
	sort.Sort(sort.Reverse(sort.Float64Slice(ws)))
	return ws
}
