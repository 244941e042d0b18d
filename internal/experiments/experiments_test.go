package experiments

import (
	"strconv"
	"strings"
	"testing"

	"colloid/internal/obs"
)

func TestListCoversAllFigures(t *testing.T) {
	want := []string{
		"fig1", "fig2a", "fig2b", "fig4", "fig5", "fig6a", "fig6b",
		"fig7", "fig8", "fig9", "fig10", "fig11a", "fig11b", "fig11c",
		"sens",
	}
	got := List()
	set := make(map[string]bool, len(got))
	for _, id := range got {
		set[id] = true
	}
	for _, id := range want {
		if !set[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"hello"},
	}
	out := tab.Render()
	for _, frag := range []string{"== x: demo ==", "333", "note: hello"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q:\n%s", frag, out)
		}
	}
}

// parse a "12.3M" ops cell back into a float.
func parseOps(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "M"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v * 1e6
}

func parseX(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func TestFig4WatermarksConverge(t *testing.T) {
	tab, err := Run("fig4", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tab.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("fig4 scenario failed to converge: %s", n)
		}
	}
}

func TestFig5ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute experiment")
	}
	tab, err := Run("fig5", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// At 3x intensity every +colloid arm must beat its vanilla arm by
	// a wide margin, and land within ~25% of best-case (quick mode is
	// noisier than the paper's 3-13%).
	row := tab.Rows[3]
	best := parseOps(t, row[1])
	for i := 2; i < 8; i += 2 {
		vanilla := parseOps(t, row[i])
		colloid := parseOps(t, row[i+1])
		if colloid < 1.4*vanilla {
			t.Errorf("3x col %d: colloid %.3g not >> vanilla %.3g", i, colloid, vanilla)
		}
		if colloid < 0.7*best {
			t.Errorf("3x col %d: colloid %.3g far from best %.3g", i, colloid, best)
		}
	}
	// At 0x colloid must not hurt.
	row0 := tab.Rows[0]
	for i := 2; i < 8; i += 2 {
		vanilla := parseOps(t, row0[i])
		colloid := parseOps(t, row0[i+1])
		if colloid < 0.9*vanilla {
			t.Errorf("0x col %d: colloid %.3g < vanilla %.3g", i, colloid, vanilla)
		}
	}
}

// Fig 11's arms build their sim.Config by hand, so they must hand the
// arm's registry to the engine as every other arm does.
func TestFig11RecordsMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	reg := obs.NewRegistry()
	if _, err := Run("fig11a", Options{Quick: true, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	if reg.Values()["sim_quanta"] == 0 {
		t.Fatalf("fig11a recorded no sim_quanta: %v", reg.Values())
	}
}
