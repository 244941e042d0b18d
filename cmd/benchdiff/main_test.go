package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testBench = `{
  "workloads": [{"name": "paper-gups"}, {"name": "memtis-1m"}],
  "end_to_end": [
    {"name": "quantum_ms_p50", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "sim_s_per_host_s", "unit": "s/s", "better": "higher", "bound": 0.25}
  ],
  "per_layer": [
    {"name": "hemem.step_us_p50", "unit": "us", "better": "lower"},
    {"name": "memtis.step_us_p50", "unit": "us", "better": "lower"}
  ]
}`

// perfbenchOutput is one run's standard output in perfbench's format.
func perfbenchOutput(workload string, seed, trace, episodes int, digest string, correct bool, metrics string) string {
	return fmt.Sprintf(`perfbench: workload=%s seed=%d seconds=35 trace=%d quanta/episode=2000
host: cpu="Test CPU" nproc=2 gomaxprocs=1 go=go1.24.0 linux/amd64 workers=1
metric quantum_ms_p50      0.3 ms (normalised)
check: seed=%d digest=%s model_mops=302.17401 episodes=%d ok=true
{"correct":%v,"attempted":2000,"failed":0,"metrics":{%s}}
`, workload, seed, trace, seed, digest, episodes, correct, metrics)
}

// writeRuns writes files into dir and returns the run invocation's
// exit status and standard output.
func writeRuns(t *testing.T, files map[string]string) (int, string) {
	t.Helper()
	dir := t.TempDir()
	files["BENCHMARK.json"] = testBench
	for name, text := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-parent", filepath.Join(dir, "parent-*.txt"),
		"-change", filepath.Join(dir, "change-*.txt"),
		"-bench", filepath.Join(dir, "BENCHMARK.json"),
	}, &stdout, &stderr)
	return code, stdout.String() + stderr.String()
}

func gupsMetrics(p50, rate float64) string {
	return fmt.Sprintf(`"quantum_ms_p50":{"value":%g,"unit":"ms"},"sim_s_per_host_s":{"value":%g,"unit":"s/s"}`, p50, rate)
}

// tenPairs is ten paired paper-gups runs in which the change cuts the
// step time to a quarter and leaves the rate alone; tweak edits a pair
// before it is written.
func tenPairs(tweak func(seed int, parent, change *string)) map[string]string {
	files := map[string]string{}
	for seed := 11; seed <= 20; seed++ {
		jitter := float64(seed%5) * 0.002
		p := perfbenchOutput("paper-gups", seed, 0, 3, "65f14403d99bfffc", true, gupsMetrics(0.28+jitter, 34+jitter))
		// A different episode count on the change side: only the host's
		// speed decides it, so it must not count as a digest difference.
		c := perfbenchOutput("paper-gups", seed, 0, 9, "65f14403d99bfffc", true, gupsMetrics(0.07+jitter, 34-jitter))
		if tweak != nil {
			tweak(seed, &p, &c)
		}
		files[fmt.Sprintf("parent-%d.txt", seed)] = p
		files[fmt.Sprintf("change-%d.txt", seed)] = c
	}
	return files
}

func TestReportGainAndWithin(t *testing.T) {
	files := tenPairs(nil)
	files["parent-traced.txt"] = perfbenchOutput("paper-gups", 1, 1, 2, "65f14403d99bfffc", true,
		`"hemem.step_us_p50":{"value":364,"unit":"us"},"memtis.step_us_p50":{"value":0,"unit":"us"}`)
	files["change-traced.txt"] = perfbenchOutput("paper-gups", 1, 1, 2, "65f14403d99bfffc", true,
		`"hemem.step_us_p50":{"value":118,"unit":"us"},"memtis.step_us_p50":{"value":0,"unit":"us"}`)
	code, out := writeRuns(t, files)
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	// The report names the host its runs came from before anything else.
	host := `host: cpu="Test CPU" nproc=2 gomaxprocs=1 go=go1.24.0 linux/amd64 workers=1`
	if first, _, _ := strings.Cut(out, "\n"); first != host {
		t.Errorf("first line %q, want %q", first, host)
	}
	for _, want := range []string{
		"paper-gups trace=0: 10 pairs, seeds 11 12 13 14 15 16 17 18 19 20",
		"check digests: equal in 10/10 pairs",
		"failed/attempted quanta: parent 0/20000, change 0/20000",
		"paper-gups trace=1: 1 pairs, seeds 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "memtis.step_us_p50") {
		t.Errorf("a layer that is 0 on every run is listed:\n%s", out)
	}
	// The last three columns of a row: wins, bound and verdict.
	verdicts := map[string]string{
		"quantum_ms_p50 (ms)":    "10/10 20% gain",
		"sim_s_per_host_s (s/s)": "0/10 25% within",
		"hemem.step_us_p50 (us)": "1/1 - -",
	}
	for metric, want := range verdicts {
		got := ""
		for _, l := range strings.Split(out, "\n") {
			if f := strings.Fields(l); strings.Contains(l, metric) && len(f) >= 3 {
				got = strings.Join(f[len(f)-3:], " ")
			}
		}
		if got != want {
			t.Errorf("%s row ends %q, want %q:\n%s", metric, got, want, out)
		}
	}
}

func TestReportRefusals(t *testing.T) {
	cases := []struct {
		name  string
		tweak func(seed int, parent, change *string)
		want  string
	}{
		{"worse", func(seed int, p, c *string) {
			*c = perfbenchOutput("paper-gups", seed, 0, 3, "65f14403d99bfffc", true, gupsMetrics(0.28, 20))
		}, "worse"},
		{"digest", func(seed int, p, c *string) {
			if seed == 13 {
				*c = strings.Replace(*c, "65f14403d99bfffc", "0000000000000001", 1)
			}
		}, "check digests: DIFFER for seeds 13"},
		{"incorrect", func(seed int, p, c *string) {
			if seed == 17 {
				*c = strings.Replace(*c, `"correct":true`, `"correct":false`, 1)
			}
		}, "correct:false in"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := writeRuns(t, tenPairs(tc.tweak))
			if code != 1 {
				t.Fatalf("exit %d, want 1:\n%s", code, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
}

func TestInputErrors(t *testing.T) {
	unpaired := tenPairs(nil)
	delete(unpaired, "change-15.txt")
	otherHost := tenPairs(func(seed int, p, c *string) {
		if seed == 12 {
			*c = strings.Replace(*c, "Test CPU", "Other CPU", 1)
		}
	})
	truncated := tenPairs(func(seed int, p, c *string) {
		if seed == 19 {
			*p = (*p)[:strings.Index(*p, "{")]
		}
	})
	for name, files := range map[string]map[string]string{
		"unpaired":   unpaired,
		"other host": otherHost,
		"truncated":  truncated,
	} {
		if code, out := writeRuns(t, files); code != 2 {
			t.Errorf("%s: exit %d, want 2:\n%s", name, code, out)
		}
	}
}

func TestCompareMetric(t *testing.T) {
	ramp := func(base, step float64) []float64 {
		v := make([]float64, 10)
		for i := range v {
			v[i] = base + step*float64(i)
		}
		return v
	}
	cases := []struct {
		name         string
		p, c         []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"gain", ramp(1, 0.01), ramp(0.5, 0.01), false, 0.2, verdictGain},
		{"higher is better", ramp(30, 0.1), ramp(100, 0.1), true, 0.25, verdictGain},
		{"worse", ramp(1, 0.01), ramp(1.3, 0.01), false, 0.2, verdictWorse},
		{"worse when higher is better", ramp(100, 0.1), ramp(70, 0.1), true, 0.25, verdictWorse},
		{"within", ramp(1, 0.01), ramp(1.02, 0.01), false, 0.2, verdictWithin},
		// Every change run wins, but by less than the parent's spread,
		// which is itself wider than the bound.
		{"unresolved", ramp(1, 0.1), ramp(0.95, 0.1), false, 0.2, verdictUnresolved},
		// A spread wider than the bound is resolved when every change
		// run beats every parent run.
		{"separated", []float64{1, 1, 1, 1, 1, 1.5, 2, 2, 2, 2}, ramp(0.9, 0), false, 0.2, verdictWithin},
	}
	for _, tc := range cases {
		if got := compareMetric(tc.p, tc.c, tc.higherBetter, tc.bound).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestQuartiles(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.q1 != 2 || s.median != 3 || s.q3 != 4 {
		t.Fatalf("summary of 1..5 = %+v, want q1 2, median 3, q3 4", s)
	}
	s = summarize([]float64{4, 1, 3, 2})
	if s.q1 != 1.75 || s.median != 2.5 || s.q3 != 3.25 {
		t.Fatalf("summary of 1..4 = %+v, want q1 1.75, median 2.5, q3 3.25", s)
	}
}
