package heat

import (
	"strings"
	"testing"

	"colloid/internal/pages"
	"colloid/internal/stats"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // "" = valid
	}{
		{"zero", Spec{}, ""},
		{"region default", Spec{Kind: Region}, ""},
		{"region pow2", Spec{Kind: Region, RegionPages: 256}, ""},
		{"exact with granularity", Spec{RegionPages: 64}, "meaningless for the exact tracker"},
		{"exact with forecaster", Spec{Forecaster: EWMA{Alpha: 0.3}}, "meaningless for the exact tracker"},
		{"exact with chained forecaster", Spec{Forecaster: Chain{LinearTrend{}}}, "meaningless for the exact tracker"},
		{"exact with explicit passthrough", Spec{Forecaster: Passthrough{}}, ""},
		{"region non-pow2", Spec{Kind: Region, RegionPages: 3}, "power of two"},
		{"region negative", Spec{Kind: Region, RegionPages: -8}, "power of two"},
		{"region too large", Spec{Kind: Region, RegionPages: MaxRegionPages * 2}, "power of two"},
		{"unknown kind", Spec{Kind: Kind(9)}, "unknown tracker kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid spec rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestSpecString(t *testing.T) {
	// flags is the spec ParseSpec maps the cmds' -region/-forecast
	// values onto.
	flags := func(regionPages int, forecast string) Spec {
		spec, err := ParseSpec(regionPages, forecast)
		if err != nil {
			t.Fatalf("ParseSpec(%d, %q) failed: %v", regionPages, forecast, err)
		}
		return spec
	}
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{}, "exact"},
		{Spec{Forecaster: Passthrough{}}, "exact"},
		// Invalid, but String must show the forecaster Validate rejects
		// rather than silently dropping it.
		{Spec{Forecaster: EWMA{Alpha: 0.3}}, "exact+ewma(0.30)"},
		{Spec{Kind: Region}, "region/64"},
		{Spec{Kind: Region, RegionPages: 4}, "region/4"},
		{Spec{Kind: Region, Forecaster: EWMA{Alpha: 0.3}}, "region/64+ewma(0.30)"},
		{Spec{Kind: Region, RegionPages: 8, Forecaster: Chain{LinearTrend{}, EWMA{Alpha: 0.5}}}, "region/8+trend>ewma(0.50)"},
		{flags(0, ""), "exact"},
		{flags(64, ""), "region/64"},
		{flags(8, "trend>ewma"), "region/8+trend>ewma(0.50)"},
	}
	for _, tc := range cases {
		if got := tc.spec.String(); got != tc.want {
			t.Errorf("%+v.String() = %q, want %q", tc.spec, got, tc.want)
		}
	}
}

func TestNewTrackerSelectsImplementation(t *testing.T) {
	if got := (Spec{}).NewTracker(16).Name(); got != "exact" {
		t.Fatalf("zero spec built %q", got)
	}
	if got := (Spec{Kind: Region}).NewTracker(16).Name(); got != "region/64" {
		t.Fatalf("region spec built %q", got)
	}
}

func TestNewTrackerPanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid spec built a tracker")
		}
	}()
	(Spec{Kind: Region, RegionPages: 5}).NewTracker(16)
}

func TestNewRegionTrackerPanicsOnBadThreshold(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("threshold 1 accepted")
		}
	}()
	NewRegionTracker(1, 64, nil)
}

// Touch returns the count Count(id) reports right after it, on every
// tracker kind, through leaf splits and their cascades, cooling passes
// (self-triggered and explicit, which merge leaves and prime a
// forecast) and cell growth as the touched ID range widens.
func TestTouchReturnsCount(t *testing.T) {
	for _, spec := range []Spec{
		{},
		{Kind: Region, RegionPages: 1},
		{Kind: Region, RegionPages: 64},
		{Kind: Region, RegionPages: 64, Forecaster: EWMA{Alpha: 0.5}},
	} {
		tr := spec.NewTracker(16)
		rng := stats.NewRNG(11)
		split, grew := false, false
		cells := 0
		for i := 0; i < 40_000; i++ {
			space := 256 << min(i/5000, 6)
			var id pages.PageID
			if rng.Intn(10) < 6 {
				id = pages.PageID((i/2000*37)%(space-8) + rng.Intn(8)) // a moving hot spot
			} else {
				id = pages.PageID(rng.Intn(space))
			}
			got := tr.Touch(id)
			if want := tr.Count(id); got != want {
				t.Fatalf("%s: touch %d of page %d returned %d, Count says %d", spec, i, id, got, want)
			}
			if r, ok := tr.(*RegionTracker); ok {
				split = split || r.cells[int(id)>>r.logG].sub != nil
				grew = grew || (cells > 0 && len(r.cells) > cells)
				cells = len(r.cells)
			}
			if i%1500 == 1499 {
				tr.Cool()
			}
		}
		if tr.Cools() < 40 {
			t.Fatalf("%s: stream cooled only %d times", spec, tr.Cools())
		}
		if spec.Kind == Region && (!grew || (spec.RegionPages > 1 && !split)) {
			t.Fatalf("%s: stream did not exercise the tracker: grew %v split %v", spec, grew, split)
		}
	}
}
