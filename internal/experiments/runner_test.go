package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"colloid/internal/memsys"
	"colloid/internal/sim"
	"colloid/internal/stats"
	"colloid/internal/workloads"
)

// Test-only experiments. test-mini exercises the pool machinery with
// pure-RNG arms; test-sim runs short real simulations so the race
// detector sees concurrent engine construction; test-fail checks error
// propagation. All results render as hex floats, so table equality
// means bit identity.
func init() {
	register("test-mini", &Experiment{
		Title: "runner self-test (seeded RNG arms)",
		Arms: func(Options) ([]Arm, error) {
			var arms []Arm
			for i := 0; i < 8; i++ {
				arms = append(arms, Arm{
					Name: fmt.Sprintf("mini/%d", i),
					Run: func(ctx ArmContext) (any, error) {
						r := stats.NewRNG(ctx.Seed)
						vals := make([]uint64, 4)
						for j := range vals {
							vals[j] = r.Uint64()
						}
						return vals, nil
					},
				})
			}
			return arms, nil
		},
		Assemble: func(o Options, results []any) (*Table, error) {
			t := &Table{ID: "test-mini", Columns: []string{"arm", "draws"}}
			for i, r := range results {
				vals := r.([]uint64)
				cells := make([]string, len(vals))
				for j, v := range vals {
					cells[j] = strconv.FormatUint(v, 16)
				}
				t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", i), strings.Join(cells, " ")})
			}
			return t, nil
		},
	})
	register("test-sim", &Experiment{
		Title: "runner self-test (short real simulations)",
		Arms: func(Options) ([]Arm, error) {
			var arms []Arm
			for _, intensity := range []workloads.Intensity{workloads.Intensity0x, workloads.Intensity1x, workloads.Intensity2x, workloads.Intensity3x} {
				intensity := intensity
				arms = append(arms, Arm{
					Name: fmt.Sprintf("sim/%dcores", intensity.Cores()),
					Run: func(ctx ArmContext) (any, error) {
						topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
						g := workloads.DefaultGUPS()
						e, err := sim.New(sim.Config{
							Topology:        topo,
							WorkingSetBytes: g.WorkingSetBytes,
							Profile:         g.Profile(),
							Antagonist:      intensity,
							Seed:            ctx.Seed,
						})
						if err != nil {
							return nil, err
						}
						if err := g.Install(e.AS(), e.WorkloadRNG()); err != nil {
							return nil, err
						}
						if err := e.Run(1.5); err != nil {
							return nil, err
						}
						return e.Tenant(0).SteadyState(1), nil
					},
				})
			}
			return arms, nil
		},
		Assemble: func(o Options, results []any) (*Table, error) {
			t := &Table{ID: "test-sim", Columns: []string{"arm", "ops", "latD", "latA"}}
			hex := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
			for i := range results {
				st := steadyAt(results, i)
				t.Rows = append(t.Rows, []string{
					fmt.Sprintf("%d", i), hex(st.OpsPerSec), hex(st.LatencyNs[0]), hex(st.LatencyNs[1]),
				})
			}
			return t, nil
		},
	})
	register("test-fail", &Experiment{
		Title: "runner self-test (failing arms)",
		Arms: func(Options) ([]Arm, error) {
			return []Arm{
				{Name: "ok", Run: func(ArmContext) (any, error) { return 1, nil }},
				{Name: "boom", Run: func(ArmContext) (any, error) { return nil, errors.New("boom") }},
				{Name: "panics", Run: func(ArmContext) (any, error) { panic("kaboom") }},
			}, nil
		},
		Assemble: func(o Options, results []any) (*Table, error) {
			return nil, errors.New("assemble must not run when arms fail")
		},
	})
}

func TestArmSeedDeterministicAndDistinct(t *testing.T) {
	if armSeed("fig5", 3, 1) != armSeed("fig5", 3, 1) {
		t.Fatal("armSeed is not a pure function")
	}
	seen := map[uint64]string{}
	for _, exp := range []string{"fig5", "fig7", "ablation"} {
		for base := uint64(1); base <= 3; base++ {
			for i := 0; i < 20; i++ {
				s := armSeed(exp, i, base)
				key := fmt.Sprintf("%s/%d/%d", exp, i, base)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: %s and %s both map to %d", prev, key, s)
				}
				seen[s] = key
			}
		}
	}
}

// TestParallelMatchesSerial is the determinism contract: for the same
// base seed, any worker count must produce bit-identical tables.
func TestParallelMatchesSerial(t *testing.T) {
	for _, id := range []string{"test-mini", "test-sim", "fig4"} {
		serial, err := Run(id, Options{Quick: true, Seed: 42, Parallelism: 1})
		if err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		parallel, err := Run(id, Options{Quick: true, Seed: 42, Parallelism: 8})
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s: parallel table differs from serial\nserial:\n%s\nparallel:\n%s",
				id, serial.Render(), parallel.Render())
		}
	}
}

func TestParallelDiffersAcrossBaseSeeds(t *testing.T) {
	a, err := Run("test-mini", Options{Seed: 1, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("test-mini", Options{Seed: 2, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatal("different base seeds produced identical arm results")
	}
}

func TestBenchReportWritten(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run("test-mini", Options{Seed: 5, Parallelism: 3, BenchDir: dir}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join(dir, "BENCH_test-mini.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatalf("BENCH file is not valid JSON: %v", err)
	}
	if rep.Experiment != "test-mini" || rep.BaseSeed != 5 || rep.Workers != 3 {
		t.Fatalf("report header wrong: %+v", rep)
	}
	if len(rep.Arms) != 8 {
		t.Fatalf("report has %d arms, want 8", len(rep.Arms))
	}
	for i, a := range rep.Arms {
		if a.Index != i || a.Name == "" || a.Error != "" {
			t.Fatalf("arm record %d malformed: %+v", i, a)
		}
		if a.Seed != armSeed("test-mini", i, 5) {
			t.Fatalf("arm %d recorded seed %d, want the derived seed", i, a.Seed)
		}
		if a.WallSeconds < 0 {
			t.Fatalf("arm %d negative wall time", i)
		}
	}
	if rep.TotalWallSeconds <= 0 {
		t.Fatalf("total wall time %v not recorded", rep.TotalWallSeconds)
	}
}

func TestArmFailureNamesLowestIndexArm(t *testing.T) {
	_, err := Run("test-fail", Options{Parallelism: 4})
	if err == nil {
		t.Fatal("failing experiment returned no error")
	}
	// All arms run to completion; the lowest-index failure (arm 1, not
	// the panicking arm 2) is reported so errors are deterministic too.
	if !strings.Contains(err.Error(), "arm 1 (boom)") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error does not name the first failing arm: %v", err)
	}
}

func TestRunnerWorkerDefault(t *testing.T) {
	// Parallelism 0 (GOMAXPROCS) must work and stay deterministic.
	a, err := Run("test-mini", Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("test-mini", Options{Seed: 9, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("default worker count diverged from serial results")
	}
}
