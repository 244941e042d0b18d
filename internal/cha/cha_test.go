package cha

import (
	"math"
	"testing"
	"testing/quick"

	"colloid/internal/stats"
)

func TestLittlesLawRoundTrip(t *testing.T) {
	c := NewCounters(2, 0, nil)
	m := NewMeter(2)
	if _, ok := m.Observe(c.Read()); ok {
		t.Fatal("first observation should prime, not report")
	}
	// 10 ms at 1e9 req/s, 150 ns on tier 0; 2e8 req/s, 300 ns tier 1.
	c.Advance(10e6, []float64{1e9, 2e8}, []float64{150, 300})
	meas, ok := m.Observe(c.Read())
	if !ok {
		t.Fatal("second observation did not report")
	}
	if math.Abs(meas[0].LatencyNs-150) > 1e-9 {
		t.Errorf("tier 0 latency = %v, want 150", meas[0].LatencyNs)
	}
	if math.Abs(meas[1].LatencyNs-300) > 1e-9 {
		t.Errorf("tier 1 latency = %v, want 300", meas[1].LatencyNs)
	}
	if math.Abs(meas[0].RatePerSec-1e9)/1e9 > 1e-12 {
		t.Errorf("tier 0 rate = %v, want 1e9", meas[0].RatePerSec)
	}
	// Occupancy = R * L = 1e9/s * 150ns = 150 requests.
	if math.Abs(meas[0].Occupancy-150) > 1e-9 {
		t.Errorf("tier 0 occupancy = %v, want 150", meas[0].Occupancy)
	}
}

func TestMeterDiffsOnlyInterval(t *testing.T) {
	c := NewCounters(1, 0, nil)
	m := NewMeter(1)
	c.Advance(1e6, []float64{1e9}, []float64{100})
	m.Observe(c.Read())
	c.Advance(1e6, []float64{5e8}, []float64{400})
	meas, ok := m.Observe(c.Read())
	if !ok {
		t.Fatal("no measurement")
	}
	// The second interval alone should be visible.
	if math.Abs(meas[0].LatencyNs-400) > 1e-9 {
		t.Errorf("interval latency = %v, want 400", meas[0].LatencyNs)
	}
}

// Once primed, Observe measures into the meter's own buffer and
// allocates nothing. The snapshots are read up front, since each read
// copies the counters.
func TestPrimedObserveAllocatesNothing(t *testing.T) {
	c := NewCounters(2, 0, nil)
	m := NewMeter(2)
	m.Observe(c.Read())
	snaps := make([]Snapshot, 25)
	for i := range snaps {
		c.Advance(1e6, []float64{1e9, 2e8}, []float64{150, 300})
		snaps[i] = c.Read()
	}
	i := 0
	n := testing.AllocsPerRun(20, func() {
		if _, ok := m.Observe(snaps[i]); !ok {
			t.Fatal("primed meter did not measure")
		}
		i++
	})
	if n != 0 {
		t.Fatalf("primed Observe allocates %v times a call", n)
	}
}

func TestZeroTrafficTier(t *testing.T) {
	c := NewCounters(2, 0, nil)
	m := NewMeter(2)
	m.Observe(c.Read())
	c.Advance(1e6, []float64{1e9, 0}, []float64{100, 135})
	meas, _ := m.Observe(c.Read())
	if meas[1].LatencyNs != 0 || meas[1].RatePerSec != 0 {
		t.Errorf("idle tier measurement = %+v, want zeros", meas[1])
	}
}

func TestNoiseAveragesOut(t *testing.T) {
	rng := stats.NewRNG(1)
	c := NewCounters(1, 0.05, rng)
	m := NewMeter(1)
	m.Observe(c.Read())
	var w stats.Welford
	for i := 0; i < 2000; i++ {
		c.Advance(1e6, []float64{1e9}, []float64{200})
		meas, ok := m.Observe(c.Read())
		if !ok {
			t.Fatal("no measurement")
		}
		w.Observe(meas[0].LatencyNs)
	}
	if math.Abs(w.Mean()-200)/200 > 0.01 {
		t.Errorf("noisy latency mean = %v, want ~200", w.Mean())
	}
	if w.Variance() == 0 {
		t.Error("noise produced zero variance")
	}
}

func TestCountersMonotone(t *testing.T) {
	rng := stats.NewRNG(2)
	c := NewCounters(2, 0.1, rng)
	prev := c.Read()
	for i := 0; i < 100; i++ {
		c.Advance(1e5, []float64{1e9, 1e8}, []float64{100, 200})
		cur := c.Read()
		for tier := 0; tier < 2; tier++ {
			if cur.Inserts[tier] < prev.Inserts[tier] {
				t.Fatal("inserts counter went backwards")
			}
			if cur.OccupancyIntegralNs[tier] < prev.OccupancyIntegralNs[tier] {
				t.Fatal("occupancy counter went backwards")
			}
		}
		prev = cur
	}
}

// Property: for any (rate, latency) pair the meter recovers the latency
// exactly when noise is disabled.
func TestLittlesLawProperty(t *testing.T) {
	f := func(rSeed, lSeed uint16) bool {
		rate := 1e6 + float64(rSeed)*1e5
		lat := 50 + float64(lSeed%1000)
		c := NewCounters(1, 0, nil)
		m := NewMeter(1)
		m.Observe(c.Read())
		c.Advance(1e6, []float64{rate}, []float64{lat})
		meas, ok := m.Observe(c.Read())
		if !ok {
			return false
		}
		return math.Abs(meas[0].LatencyNs-lat)/lat < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero tiers", func() { NewCounters(0, 0, nil) })
	mustPanic("negative noise", func() { NewCounters(1, -1, nil) })
	mustPanic("noise without rng", func() { NewCounters(1, 0.1, nil) })
	c := NewCounters(2, 0, nil)
	mustPanic("bad advance", func() { c.Advance(1, []float64{1}, []float64{1, 2}) })
	mustPanic("negative duration", func() { c.Advance(-1, []float64{1, 1}, []float64{1, 2}) })
}

func TestReadIsCopy(t *testing.T) {
	c := NewCounters(1, 0, nil)
	s := c.Read()
	s.Inserts[0] = 1e18
	if c.Read().Inserts[0] != 0 {
		t.Fatal("Read exposed internal state")
	}
}
