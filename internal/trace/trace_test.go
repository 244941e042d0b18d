package trace

import (
	"math"
	"strings"
	"testing"

	"colloid/internal/sim"
)

func TestWriteTableCSV(t *testing.T) {
	var sb strings.Builder
	err := WriteTableCSV(&sb,
		[]string{"a", "b"},
		[][]string{{"1", "x,y"}, {"2", "z"}})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "a,b" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != `1,"x,y"` {
		t.Fatalf("comma not quoted: %q", lines[1])
	}
}

func TestWriteSamplesCSV(t *testing.T) {
	samples := []sim.Sample{
		{
			TimeSec:              1,
			OpsPerSec:            1e6,
			LatencyNs:            []float64{100, 200},
			AppShare:             []float64{0.7, 0.3},
			AppBytesPerSec:       []float64{5e9, 2e9},
			MigrationBytesPerSec: 1e8,
		},
	}
	var sb strings.Builder
	if err := WriteSamplesCSV(&sb, samples, 2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], "latency_ns_t1") {
		t.Fatalf("header missing tier columns: %q", lines[0])
	}
	if !strings.Contains(lines[1], "0.7000") {
		t.Fatalf("row missing share: %q", lines[1])
	}
}

func TestWriteSamplesCSVShortSlices(t *testing.T) {
	// Samples with fewer tiers than requested must not panic.
	samples := []sim.Sample{{TimeSec: 1, LatencyNs: []float64{100}}}
	var sb strings.Builder
	if err := WriteSamplesCSV(&sb, samples, 3); err != nil {
		t.Fatal(err)
	}
}

func TestSamplesCSVRoundTrip(t *testing.T) {
	in := []sim.Sample{
		{
			TimeSec:              1.5,
			OpsPerSec:            1.23e6,
			LatencyNs:            []float64{100.5, 250.1},
			AppShare:             []float64{0.7312, 0.2688},
			AppBytesPerSec:       []float64{5e9, 2e9},
			MigrationBytesPerSec: 1e8,
		},
		{
			TimeSec:        2.5,
			OpsPerSec:      9.87e5,
			LatencyNs:      []float64{110.2, 240.9},
			AppShare:       []float64{0.5, 0.5},
			AppBytesPerSec: []float64{4e9, 3e9},
		},
	}
	var sb strings.Builder
	if err := WriteSamplesCSV(&sb, in, 2); err != nil {
		t.Fatal(err)
	}
	out, err := ReadSamplesCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("%d samples round-tripped, want %d", len(out), len(in))
	}
	// Values come back at printed precision: time %.3f, rates %.0f,
	// latency %.1f, share %.4f.
	close := func(got, want, tol float64) bool { return math.Abs(got-want) <= tol }
	for i := range in {
		if !close(out[i].TimeSec, in[i].TimeSec, 5e-4) {
			t.Errorf("sample %d TimeSec = %v, want %v", i, out[i].TimeSec, in[i].TimeSec)
		}
		if !close(out[i].OpsPerSec, in[i].OpsPerSec, 0.5) {
			t.Errorf("sample %d OpsPerSec = %v, want %v", i, out[i].OpsPerSec, in[i].OpsPerSec)
		}
		if !close(out[i].MigrationBytesPerSec, in[i].MigrationBytesPerSec, 0.5) {
			t.Errorf("sample %d migration = %v, want %v", i, out[i].MigrationBytesPerSec, in[i].MigrationBytesPerSec)
		}
		for tier := 0; tier < 2; tier++ {
			if !close(out[i].LatencyNs[tier], in[i].LatencyNs[tier], 0.05) {
				t.Errorf("sample %d tier %d latency = %v, want %v", i, tier, out[i].LatencyNs[tier], in[i].LatencyNs[tier])
			}
			if !close(out[i].AppShare[tier], in[i].AppShare[tier], 5e-5) {
				t.Errorf("sample %d tier %d share = %v, want %v", i, tier, out[i].AppShare[tier], in[i].AppShare[tier])
			}
			if !close(out[i].AppBytesPerSec[tier], in[i].AppBytesPerSec[tier], 0.5) {
				t.Errorf("sample %d tier %d bw = %v, want %v", i, tier, out[i].AppBytesPerSec[tier], in[i].AppBytesPerSec[tier])
			}
		}
	}
}

func TestSamplesCSVRoundTripNaNInf(t *testing.T) {
	// A solver blow-up or an empty tier can put NaN/Inf in a trace; the
	// CSV must carry them through rather than corrupt the file.
	in := []sim.Sample{{
		TimeSec:              1,
		OpsPerSec:            math.NaN(),
		LatencyNs:            []float64{math.Inf(1), math.Inf(-1)},
		AppShare:             []float64{math.NaN(), 0},
		AppBytesPerSec:       []float64{0, 0},
		MigrationBytesPerSec: math.Inf(1),
	}}
	var sb strings.Builder
	if err := WriteSamplesCSV(&sb, in, 2); err != nil {
		t.Fatal(err)
	}
	out, err := ReadSamplesCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("%d samples, want 1", len(out))
	}
	s := out[0]
	if !math.IsNaN(s.OpsPerSec) {
		t.Errorf("OpsPerSec = %v, want NaN", s.OpsPerSec)
	}
	if !math.IsInf(s.LatencyNs[0], 1) || !math.IsInf(s.LatencyNs[1], -1) {
		t.Errorf("LatencyNs = %v, want [+Inf -Inf]", s.LatencyNs)
	}
	if !math.IsNaN(s.AppShare[0]) {
		t.Errorf("AppShare[0] = %v, want NaN", s.AppShare[0])
	}
	if !math.IsInf(s.MigrationBytesPerSec, 1) {
		t.Errorf("migration = %v, want +Inf", s.MigrationBytesPerSec)
	}
}

func TestReadSamplesCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadSamplesCSV(strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Fatal("non-trace header accepted")
	}
	if _, err := ReadSamplesCSV(strings.NewReader("t_sec,ops_per_sec,migration_bytes_per_sec\nx,2,3\n")); err == nil {
		t.Fatal("non-numeric cell accepted")
	}
}
