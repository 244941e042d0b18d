package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// now reads the host's monotonic clock. It is the benchmark's only
// clock; durations come from Time.Sub.
func now() time.Time {
	return time.Now() //colloid:allow determinism host-time measurement of the engine from outside; never feeds simulation state
}

// allocMeter reads the runtime's cumulative heap-allocation counter.
// Small allocations are credited when the allocating P refills a span, so
// a delta around one short call is approximate; sums over many calls are
// not.
type allocMeter struct {
	s [1]metrics.Sample
}

func newAllocMeter() *allocMeter {
	m := &allocMeter{}
	m.s[0].Name = "/gc/heap/allocs:bytes"
	return m
}

func (m *allocMeter) read() uint64 {
	metrics.Read(m.s[:])
	return m.s[0].Value.Uint64()
}

// liveHeapBytes forces a collection and returns the live heap it found.
func liveHeapBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// A yardstick measures how fast the host runs the engine's kind of work
// at the moment. Where cores and the memory system are shared with other
// tenants, the engine's step times swing by half over spells of seconds;
// a fixed slice of work that sorts and allocates, as the engine does,
// swings with them. Slices run between steps every yardstickEveryNs of
// stepping (about 4% of a run), and a step's time scaled by
// yardstickNominalNs over the mean of the slices on either side of it is
// its time at the nominal host speed. Interleaved this finely, an
// episode's slices track its steps at a correlation of about 0.97, and
// the ratio spreads a quarter as much as the raw times.
type yardstick struct {
	x    uint64 // xorshift64 state
	xs   []float64
	ring []*yardNode
	am   *allocMeter
	// alloc sums the heap bytes the slices allocated, for the caller to
	// take out of its own allocation count.
	alloc uint64
}

const (
	yardstickEveryNs = 25e6
	// yardstickN is the slice's size: it sorts this many floats and
	// allocates this many small objects.
	yardstickN = 8192
	// yardstickNominalNs is one slice's host time on a quiet host of the
	// kind the README names, so that normalised times read as the raw
	// times there.
	yardstickNominalNs = 0.8e6
)

type yardNode struct{ v [6]uint64 }

func newYardstick() *yardstick {
	return &yardstick{x: 0x9e3779b97f4a7c15, xs: make([]float64, yardstickN), ring: make([]*yardNode, yardstickN/2), am: newAllocMeter()}
}

// slice runs one slice of the fixed work and returns its host time in ns.
func (y *yardstick) slice() float64 {
	a0 := y.am.read()
	t0 := now()
	for i := range y.xs {
		y.x ^= y.x << 13
		y.x ^= y.x >> 7
		y.x ^= y.x << 17
		y.xs[i] = float64(y.x >> 11)
	}
	sort.Float64s(y.xs)
	for i := 0; i < yardstickN; i++ {
		n := &yardNode{}
		n.v[0] = y.x + uint64(i)
		y.ring[i%len(y.ring)] = n
	}
	d := float64(now().Sub(t0).Nanoseconds())
	y.alloc += y.am.read() - a0
	return d
}

// scale is the factor that takes host times measured between two slices
// of before and after ns to the nominal host speed.
func scale(before, after float64) float64 {
	return yardstickNominalNs / ((before + after) / 2)
}

// minTail is how many samples must lie beyond a reported percentile: p99
// needs 1,000 samples, p50 needs 20.
const minTail = 10

// percentile returns the nearest-rank p-quantile of xs. It refuses when
// fewer than minTail samples would lie beyond it, so a p99 never rests on
// a handful of slow samples.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || float64(n)*(1-p) < minTail-1e-9 {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", p*100, int(math.Ceil(minTail/(1-p)-1e-9)), n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(n)-1e-9)) - 1
	return s[max(rank, 0)], nil
}

// median is the middle of xs (mean of the middle pair when even), for
// small sample sets such as per-run set-up times. It is 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fingerprint describes the host a result was measured on. Results from
// two different fingerprints are not comparable.
func fingerprint(workers int) string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s os/arch=%s/%s workers=%d",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, workers)
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
