package memtis

import (
	"testing"

	"colloid/internal/core"
	"colloid/internal/simtest"
	"colloid/internal/workloads"
)

func TestVanillaPacksHotSet(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	sys := New(Config{})
	e, _ := simtest.RunGUPS(t, sys, 0, 90, 1)
	if p := e.AS().DefaultShare(); p < 0.8 {
		t.Fatalf("default share = %v, want > 0.8", p)
	}
	if sys.HotThreshold() == 0 {
		t.Fatal("dynamic threshold never computed")
	}
}

func TestSplittingHappensAndPenalizes(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	withSplit := New(Config{})
	_, stSplit := simtest.RunGUPS(t, withSplit, 0, 90, 2)
	noSplit := New(Config{})
	noSplit.splitting = false
	_, stNoSplit := simtest.RunGUPS(t, noSplit, 0, 90, 2)
	if withSplit.SplitParents() == 0 {
		t.Fatal("no hugepages were split")
	}
	if noSplit.SplitParents() != 0 {
		t.Fatal("splitting disabled but parents recorded")
	}
	// The paper: MEMTIS loses ~10% at 0x from unnecessary splitting.
	loss := 1 - stSplit.OpsPerSec/stNoSplit.OpsPerSec
	if loss < 0.02 || loss > 0.2 {
		t.Fatalf("split penalty = %.1f%%, want ~5-15%%", loss*100)
	}
}

func TestVanillaStaysPackedUnderContention(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	e, _ := simtest.RunGUPS(t, New(Config{}), workloads.Intensity3x, 90, 3)
	if p := e.AS().DefaultShare(); p < 0.8 {
		t.Fatalf("vanilla MEMTIS unpacked under contention: p = %v", p)
	}
}

func TestColloidDemotesUnderContention(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	e, st := simtest.RunGUPS(t, New(Config{Colloid: &core.Options{}}), workloads.Intensity3x, 120, 4)
	if p := e.AS().DefaultShare(); p > 0.5 {
		t.Fatalf("memtis+colloid did not demote: p = %v", p)
	}
	if ratio := st.LatencyNs[0] / st.LatencyNs[1]; ratio > 2.2 {
		t.Fatalf("latency ratio = %v with colloid", ratio)
	}
}

func TestColloidBeatsVanillaUnderContention(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	_, vanilla := simtest.RunGUPS(t, New(Config{}), workloads.Intensity3x, 120, 5)
	_, colloid := simtest.RunGUPS(t, New(Config{Colloid: &core.Options{}}), workloads.Intensity3x, 120, 5)
	gain := colloid.OpsPerSec / vanilla.OpsPerSec
	if gain < 1.5 {
		t.Fatalf("memtis+colloid gain at 3x = %.2fx, want > 1.5x", gain)
	}
}

func TestDynamicSampleRateBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	sys := New(Config{})
	simtest.RunGUPS(t, sys, 0, 30, 6)
	if sys.sampleScale < 0.4 || sys.sampleScale > 2.3 {
		t.Fatalf("sample scale out of bounds: %v", sys.sampleScale)
	}
}

func TestNames(t *testing.T) {
	if New(Config{}).Name() != "memtis" || New(Config{Colloid: &core.Options{}}).Name() != "memtis+colloid" {
		t.Fatal("names wrong")
	}
}
