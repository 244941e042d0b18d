package lint

import (
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes rel->content files under a fresh temp root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// lintTree lints a temp tree and returns the findings' String forms.
func lintTree(t *testing.T, files map[string]string) []string {
	t.Helper()
	findings, err := Tree(writeTree(t, files))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(findings))
	for i, f := range findings {
		out[i] = f.String()
	}
	return out
}

// heatStandIn is the slice of colloid/internal/heat the probes name.
const heatStandIn = `package heat

// Kind selects a tracker's granularity.
type Kind int

// Region tracks heat per run of pages.
const Region Kind = 1

// Spec configures a tracker.
type Spec struct {
	Kind        Kind
	RegionPages int
}
`

// withStandIns adds the fixture tree's internal/shard and internal/stats
// stand-ins and a minimal internal/heat to a probe tree, so a probe
// that imports them type-checks.
func withStandIns(t *testing.T, files map[string]string) map[string]string {
	t.Helper()
	out := map[string]string{"internal/heat/heat.go": heatStandIn}
	for _, rel := range []string{"internal/shard/shard.go", "internal/stats/stats.go"} {
		src, err := os.ReadFile(filepath.Join("testdata", "src", filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		out[rel] = string(src)
	}
	maps.Copy(out, files)
	return out
}

// TestGoldenFixtures pins the exact file:line: [check] message output
// over the known-bad/known-good fixture tree.
func TestGoldenFixtures(t *testing.T) {
	findings, err := Tree(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, f := range findings {
		lines = append(lines, f.String())
	}
	got := strings.Join(lines, "\n") + "\n"
	wantBytes, err := os.ReadFile(filepath.Join("testdata", "golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if want := string(wantBytes); got != want {
		t.Errorf("fixture findings diverge from testdata/golden.txt\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRepoLintClean runs the full suite over the real repository: the
// merged tree must stay free of unsuppressed findings, which is the
// contract `make lint` enforces in CI.
func TestRepoLintClean(t *testing.T) {
	findings, err := Tree(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("repo not lint-clean: %s", f)
	}
}

// TestTypeErrorFailsLoad pins the strict loader: a tree that does not
// type-check is an error naming the file and line, not a partial lint.
func TestTypeErrorFailsLoad(t *testing.T) {
	cases := map[string]string{
		"undefined name": `package core

func Quantum() float64 { return quantumSec }
`,
		"missing import": `package core

import "colloid/internal/stats"

func Stream() *stats.RNG { return nil }
`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := Tree(writeTree(t, map[string]string{"internal/core/bad.go": src}))
			if err == nil || !strings.HasPrefix(err.Error(), "lint: internal/core/bad.go:3:") {
				t.Fatalf("want a lint: internal/core/bad.go:3: error, got %v", err)
			}
		})
	}
}

// TestInjectedWallClockCaught is the acceptance probe: a time.Now()
// dropped into internal/core is caught by name of the determinism
// check.
func TestInjectedWallClockCaught(t *testing.T) {
	got := lintTree(t, map[string]string{
		"internal/core/bad.go": `package core

import "time"

func Quantum() float64 { return float64(time.Now().UnixNano()) }
`,
	})
	if len(got) != 1 || !strings.Contains(got[0], "[determinism]") || !strings.Contains(got[0], "time.Now") {
		t.Fatalf("injected time.Now in internal/core not caught by determinism, got %q", got)
	}
}

// TestInjectedMapRangeSinkCaught is the second acceptance probe: an
// unsorted map-range feeding a trace sink dropped into internal/obs is
// caught by name of the maprange check.
func TestInjectedMapRangeSinkCaught(t *testing.T) {
	got := lintTree(t, map[string]string{
		"internal/obs/bad.go": `package obs

type Trace struct{}

func (t *Trace) Emit(kind string) {}

func Dump(m map[string]float64, tr *Trace) {
	for k := range m {
		tr.Emit(k)
	}
}
`,
	})
	if len(got) != 1 || !strings.Contains(got[0], "[maprange]") || !strings.Contains(got[0], "Emit") {
		t.Fatalf("injected map-range sink in internal/obs not caught by maprange, got %q", got)
	}
}

// TestInjectedMathRandCaught probes the seed-flow half of the
// determinism check: a math/rand source smuggled into a simulation
// package is caught by name of the determinism check — new package
// directories are covered by Tree without registration. Each probe
// yields the import and the rand.New and rand.NewSource constructors.
// Probe trees carry stand-ins for the packages they import.
func TestInjectedMathRandCaught(t *testing.T) {
	cases := []struct {
		name, file, src string
	}{
		// Shuffling tenants instead of forking the cluster's stats.RNG
		// per tenant name.
		{"tenant", "internal/tenant/bad.go", `package tenant

import "math/rand"

func Shuffle(names []string) {
	rand.New(rand.NewSource(1)).Shuffle(len(names), func(i, j int) {
		names[i], names[j] = names[j], names[i]
	})
}
`},
		// Randomized split decisions: tracker decisions must be
		// functions of the touch stream alone.
		{"heat", "internal/heat/bad.go", `package heat

import "math/rand"

func jitterSplit(count uint32) uint32 {
	return count + uint32(rand.New(rand.NewSource(1)).Intn(4))
}
`},
		// A tenant's tracker granularity is deterministic configuration
		// (QoS class buys fidelity), never a random pick.
		{"tenant-heat", "internal/tenant/bad.go", `package tenant

import (
	"math/rand"

	"colloid/internal/heat"
)

func randomFidelity() *heat.Spec {
	g := 1 << uint(rand.New(rand.NewSource(1)).Intn(11))
	return &heat.Spec{Kind: heat.Region, RegionPages: g}
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := lintTree(t, withStandIns(t, map[string]string{tc.file: tc.src}))
			if len(got) != 3 {
				t.Fatalf("want import + rand.New + rand.NewSource findings, got %q", got)
			}
			for _, line := range got {
				if !strings.Contains(line, "[determinism]") || !strings.HasPrefix(line, tc.file) {
					t.Errorf("math/rand in %s not caught by determinism: %q", tc.file, line)
				}
			}
		})
	}
}

// TestInjectedSharedStreamCaught probes the sharding half of the
// gocapture check: a shard.Run callback drawing from one captured RNG
// stream — worker-count-dependent, the exact bug per-shard Split
// streams and per-tenant Forks exist to prevent — is caught by name of
// the gocapture check in every package that fans out, as is a shared
// slice appended in completion order. Probe trees carry stand-ins for
// the packages they import.
func TestInjectedSharedStreamCaught(t *testing.T) {
	cases := []struct {
		name, file, src string
		want            []string
	}{
		{"access", "internal/access/bad.go", `package access

import (
	"colloid/internal/shard"
	"colloid/internal/stats"
)

func Scan(rng *stats.RNG, out []float64) []float64 {
	shard.Run(4, 16, func(s int) {
		out = append(out, rng.Float64())
	})
	return out
}
`, []string{"Float64", `append to "out"`}},
		{"tenant", "internal/tenant/bad.go", `package tenant

import (
	"colloid/internal/shard"
	"colloid/internal/stats"
)

func Jitter(rng *stats.RNG, out []float64) {
	shard.Run(4, len(out), func(s int) {
		out[s] = rng.Float64()
	})
}
`, []string{"Float64"}},
		// A sharded Cool would silently break the region tracker's
		// bit-identity contract.
		{"heat", "internal/heat/bad.go", `package heat

import (
	"colloid/internal/shard"
	"colloid/internal/stats"
)

func noisyCool(rng *stats.RNG, totals []float64) {
	shard.Run(4, len(totals), func(s int) {
		totals[s] *= rng.Float64()
	})
}
`, []string{"Float64"}},
		// The tenants experiment's scale arm drives per-tenant trackers
		// on name-forked streams; one captured stream would make its
		// checksum depend on the worker count.
		{"experiments", "internal/experiments/bad.go", `package experiments

import (
	"colloid/internal/shard"
	"colloid/internal/stats"
)

func scaleTouches(rng *stats.RNG, perTenant []uint64) {
	shard.Run(4, len(perTenant), func(s int) {
		perTenant[s] = rng.Uint64()
	})
}
`, []string{"Uint64"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := lintTree(t, withStandIns(t, map[string]string{tc.file: tc.src}))
			if len(got) != len(tc.want) {
				t.Fatalf("want %d findings (%q), got %q", len(tc.want), tc.want, got)
			}
			for i, line := range got {
				if !strings.Contains(line, "[gocapture]") || !strings.HasPrefix(line, tc.file) || !strings.Contains(line, tc.want[i]) {
					t.Errorf("finding %d = %q, want a gocapture finding in %s naming %q", i, line, tc.file, tc.want[i])
				}
			}
		})
	}
}

// TestDeterminismPackageAllowlist covers the cmd/ predicate and its
// end-to-end effect: cmd/ trees may read the clock, internal/ trees may
// not, and the math/rand import and constructors are still flagged
// under cmd/.
func TestDeterminismPackageAllowlist(t *testing.T) {
	cases := map[string]bool{
		"cmd/colloidsim":   true,
		"cmd/colloidlint":  true,
		"cmd":              true,
		"cmdline":          false,
		"internal/core":    false,
		"internal/sim":     false,
		"examples/gupsrun": false,
	}
	for path, want := range cases {
		if got := underCmd(path); got != want {
			t.Errorf("underCmd(%q) = %v, want %v", path, got, want)
		}
	}

	src := `package main

import "time"

func main() { _ = time.Now() }
`
	if got := lintTree(t, map[string]string{"cmd/tool/main.go": src}); len(got) != 0 {
		t.Errorf("determinism fired under allowlisted cmd/: %q", got)
	}
	if got := lintTree(t, map[string]string{"internal/tool/main.go": src}); len(got) != 1 {
		t.Errorf("determinism did not fire outside the allowlist: %q", got)
	}

	// The allowlist covers clocks, the environment and global math/rand
	// only: RNGs under cmd/ still come from stats.RNG.
	got := lintTree(t, map[string]string{
		"cmd/tool/main.go": `package main

import "math/rand"

func main() { _ = rand.New(rand.NewSource(1)) }
`,
	})
	joined := strings.Join(got, "\n")
	for _, want := range []string{"import of math/rand", "rand.New builds", "rand.NewSource builds"} {
		if !strings.Contains(joined, want) {
			t.Errorf("determinism skipped %q under cmd/: %q", want, got)
		}
	}
	if len(got) != 3 || strings.Count(joined, "[determinism]") != 3 {
		t.Errorf("want exactly the three determinism findings under cmd/, got %q", got)
	}
}

// TestSuppression covers the //colloid:allow placement rules and the
// reason requirement end to end.
func TestSuppression(t *testing.T) {
	t.Run("trailing comment suppresses its line", func(t *testing.T) {
		got := lintTree(t, map[string]string{
			"internal/p/p.go": `package p

import "time"

func Now() float64 {
	return float64(time.Now().UnixNano()) //colloid:allow determinism test fixture reason
}
`,
		})
		if len(got) != 0 {
			t.Errorf("trailing suppression ignored: %q", got)
		}
	})
	t.Run("standalone comment suppresses the next line", func(t *testing.T) {
		got := lintTree(t, map[string]string{
			"internal/p/p.go": `package p

import "time"

func Now() float64 {
	//colloid:allow determinism test fixture reason
	return float64(time.Now().UnixNano())
}
`,
		})
		if len(got) != 0 {
			t.Errorf("standalone suppression ignored: %q", got)
		}
	})
	t.Run("wrong check name does not suppress", func(t *testing.T) {
		got := lintTree(t, map[string]string{
			"internal/p/p.go": `package p

import "time"

func Now() float64 {
	return float64(time.Now().UnixNano()) //colloid:allow maprange wrong check
}
`,
		})
		if len(got) != 2 {
			t.Fatalf("want determinism + staleallow findings, got %q", got)
		}
		joined := strings.Join(got, "\n")
		for _, want := range []string{"[determinism]", "[staleallow]", "no longer suppresses"} {
			if !strings.Contains(joined, want) {
				t.Errorf("missing %q in %q", want, got)
			}
		}
	})
	t.Run("bare suppression is itself a finding and suppresses nothing", func(t *testing.T) {
		got := lintTree(t, map[string]string{
			"internal/p/p.go": `package p

import "time"

func Now() float64 {
	return float64(time.Now().UnixNano()) //colloid:allow determinism
}
`,
		})
		if len(got) != 2 {
			t.Fatalf("want suppression + determinism findings, got %q", got)
		}
		joined := strings.Join(got, "\n")
		for _, want := range []string{"[suppression]", "no reason", "[determinism]"} {
			if !strings.Contains(joined, want) {
				t.Errorf("missing %q in %q", want, got)
			}
		}
	})
	t.Run("distant comment does not suppress", func(t *testing.T) {
		got := lintTree(t, map[string]string{
			"internal/p/p.go": `package p

import "time"

//colloid:allow determinism too far away to apply

func Now() float64 {
	return float64(time.Now().UnixNano())
}
`,
		})
		if len(got) != 2 {
			t.Fatalf("want determinism + staleallow findings, got %q", got)
		}
		joined := strings.Join(got, "\n")
		for _, want := range []string{"[determinism]", "[staleallow]"} {
			if !strings.Contains(joined, want) {
				t.Errorf("missing %q in %q", want, got)
			}
		}
	})
}

// TestInjectedObsNameCollisionCaught is the obsnames acceptance probe:
// the same constant name registered as both a counter and a gauge —
// across call sites, resolved through the typed loader — is caught by
// name of the obsnames check, once per registration site.
func TestInjectedObsNameCollisionCaught(t *testing.T) {
	got := lintTree(t, map[string]string{
		"internal/obs/obs.go": `package obs

type Counter struct{}
type Gauge struct{}
type Histogram struct{}

type Registry struct{}

func (r *Registry) Counter(name string) *Counter     { return &Counter{} }
func (r *Registry) Gauge(name string) *Gauge         { return &Gauge{} }
func (r *Registry) Histogram(name string) *Histogram { return &Histogram{} }
func (r *Registry) Scoped(prefix string) *Registry   { return r }
`,
		"internal/core/bad.go": `package core

import "colloid/internal/obs"

func Wire(r *obs.Registry) {
	r.Counter("ctrl.pressure")
	r.Gauge("ctrl.pressure")
}
`,
	})
	var collisions int
	for _, line := range got {
		if strings.Contains(line, "[obsnames]") && strings.Contains(line, "counter and gauge") {
			collisions++
		}
	}
	if collisions != 2 {
		t.Fatalf("injected counter/gauge kind collision not caught at both sites by obsnames, got %q", got)
	}
}

// TestInjectedGoCaptureCaught is the gocapture acceptance probe: a
// captured accumulator written inside a `go` literal is caught by name
// of the gocapture check, while the loop variable the body reads (its
// own per iteration since Go 1.22) and the indexed slot write pass.
func TestInjectedGoCaptureCaught(t *testing.T) {
	got := lintTree(t, map[string]string{
		"internal/core/bad.go": `package core

func FanOut(n int, out []int) {
	sum := 0
	for i := 0; i < n; i++ {
		go func() {
			out[i] = i * 2
			sum += i
		}()
	}
}
`,
	})
	if len(got) != 1 || !strings.Contains(got[0], "[gocapture]") || !strings.Contains(got[0], `+= into "sum"`) {
		t.Fatalf("injected captured write not caught by gocapture, got %q", got)
	}
}

// TestInjectedStaleAllowCaught is the staleallow acceptance probe: a
// //colloid:allow directive on a line where its check no longer fires
// is itself reported, by name of the staleallow check.
func TestInjectedStaleAllowCaught(t *testing.T) {
	got := lintTree(t, map[string]string{
		"internal/core/bad.go": `package core

func Twice(x int) int {
	return x * 2 //colloid:allow determinism nothing deterministic left here
}
`,
	})
	if len(got) != 1 || !strings.Contains(got[0], "[staleallow]") || !strings.Contains(got[0], "no longer suppresses") {
		t.Fatalf("stale suppression not caught by staleallow, got %q", got)
	}
}

// TestInjectedFloatOrderCaught is the float-fold acceptance probe: a
// float64 accumulation inside a map range folds terms in random order
// and is caught by name of the maprange check, once, in the float
// wording an integer-sum suppression does not read as covering.
func TestInjectedFloatOrderCaught(t *testing.T) {
	got := lintTree(t, map[string]string{
		"internal/core/bad.go": `package core

func Sum(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v
	}
	return total
}
`,
	})
	if len(got) != 1 || !strings.Contains(got[0], `[maprange] float64 += into "total"`) {
		t.Fatalf("injected float map-range accumulation not caught by maprange, got %q", got)
	}
}

// TestCheckRegistry pins the suite composition so a dropped init() is
// noticed.
func TestCheckRegistry(t *testing.T) {
	want := []string{
		"determinism", "gocapture", "maprange", "msgprefix", "obsnames",
		"staleallow",
	}
	got := CheckNames()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("registered checks = %v, want %v", got, want)
	}
}
