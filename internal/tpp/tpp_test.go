package tpp

import (
	"testing"

	"colloid/internal/core"
	"colloid/internal/memsys"
	"colloid/internal/simtest"
	"colloid/internal/workloads"
)

func TestVanillaPromotesHotPages(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	e, st := simtest.RunGUPS(t, New(Config{}), 0, 120, 1)
	// TPP is slower than HeMem but must still pack most of the hot set
	// within two scan periods.
	if p := e.AS().DefaultShare(); p < 0.75 {
		t.Fatalf("default share = %v, want > 0.75", p)
	}
	if st.LatencyNs[0] >= st.LatencyNs[1] {
		t.Fatalf("default tier should stay faster at 0x: %v", st.LatencyNs)
	}
}

func TestVanillaStaysPackedUnderContention(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	e, _ := simtest.RunGUPS(t, New(Config{}), workloads.Intensity3x, 120, 2)
	if p := e.AS().DefaultShare(); p < 0.75 {
		t.Fatalf("vanilla TPP unpacked under contention: p = %v", p)
	}
}

func TestColloidDemotesUnderContention(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	e, st := simtest.RunGUPS(t, New(Config{Colloid: &core.Options{}}), workloads.Intensity3x, 240, 3)
	if p := e.AS().DefaultShare(); p > 0.55 {
		t.Fatalf("tpp+colloid did not demote: p = %v", p)
	}
	if ratio := st.LatencyNs[0] / st.LatencyNs[1]; ratio > 2.2 {
		t.Fatalf("latency ratio = %v, want < 2.2", ratio)
	}
}

func TestColloidBeatsVanillaUnderContention(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	_, vanilla := simtest.RunGUPS(t, New(Config{}), workloads.Intensity3x, 240, 4)
	_, colloid := simtest.RunGUPS(t, New(Config{Colloid: &core.Options{}}), workloads.Intensity3x, 240, 4)
	gain := colloid.OpsPerSec / vanilla.OpsPerSec
	if gain < 1.5 {
		t.Fatalf("tpp+colloid gain at 3x = %.2fx, want > 1.5x", gain)
	}
}

func TestKswapdMaintainsWatermark(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	e, _ := simtest.RunGUPS(t, New(Config{}), 0, 120, 5)
	free := e.AS().FreeBytes(memsys.DefaultTier)
	watermark := int64(freeWatermarkFrac * float64(e.Topology().Capacity(memsys.DefaultTier)))
	// Allow slack of a few pages while promotions are in flight.
	if free < watermark/2 {
		t.Fatalf("kswapd let free space fall to %d (watermark %d)", free, watermark)
	}
}

func TestThresholdAdapts(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	sys := New(Config{})
	simtest.RunGUPS(t, sys, 0, 60, 6)
	if sys.TTFThreshold() == hotTTFSec {
		t.Log("threshold unchanged (acceptable if budget matched exactly)")
	}
	if sys.TTFThreshold() < 1e-4 || sys.TTFThreshold() > 10 {
		t.Fatalf("threshold out of bounds: %v", sys.TTFThreshold())
	}
}

func TestNames(t *testing.T) {
	if New(Config{}).Name() != "tpp" || New(Config{Colloid: &core.Options{}}).Name() != "tpp+colloid" {
		t.Fatal("names wrong")
	}
}
