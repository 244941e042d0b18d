package heat

import (
	"math"
	"strings"
	"testing"
)

func TestPassthroughIsIdentity(t *testing.T) {
	var f Passthrough
	if f.Name() != "passthrough" {
		t.Fatalf("name = %q", f.Name())
	}
	if f.StateLen() != 0 {
		t.Fatalf("state len = %d", f.StateLen())
	}
	for _, v := range []float64{0, 1, 3.5, 1e9} {
		if got := f.Forecast(nil, v); got != v {
			t.Fatalf("forecast(%v) = %v", v, got)
		}
	}
}

func TestEWMAPrimesThenBlends(t *testing.T) {
	f := EWMA{Alpha: 0.5}
	state := make([]float64, f.StateLen())
	// The first observation primes the average rather than blending
	// against an implicit zero.
	if got := f.Forecast(state, 8); got != 8 {
		t.Fatalf("priming forecast = %v, want 8", got)
	}
	if got := f.Forecast(state, 4); got != 6 {
		t.Fatalf("second forecast = %v, want 6", got)
	}
	if got := f.Forecast(state, 6); got != 6 {
		t.Fatalf("third forecast = %v, want 6", got)
	}
	if f.Name() != "ewma(0.50)" {
		t.Fatalf("name = %q", f.Name())
	}
}

func TestEWMARejectsBadAlpha(t *testing.T) {
	for _, alpha := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("alpha %v accepted", alpha)
				}
			}()
			f := EWMA{Alpha: alpha}
			f.Forecast(make([]float64, f.StateLen()), 1)
		}()
	}
}

func TestLinearTrendLeadsRamps(t *testing.T) {
	var f LinearTrend
	state := make([]float64, f.StateLen())
	if got := f.Forecast(state, 10); got != 10 {
		t.Fatalf("priming forecast = %v, want 10", got)
	}
	// Rising 10 -> 14: predict 18, a quantum ahead of the ramp.
	if got := f.Forecast(state, 14); got != 18 {
		t.Fatalf("rising forecast = %v, want 18", got)
	}
	// Collapsing 14 -> 2: the raw extrapolation is negative; clamp to 0.
	if got := f.Forecast(state, 2); got != 0 {
		t.Fatalf("clamped forecast = %v, want 0", got)
	}
}

func TestChainFeedsForward(t *testing.T) {
	c := Chain{LinearTrend{}, EWMA{Alpha: 0.5}}
	if c.Name() != "trend>ewma(0.50)" {
		t.Fatalf("name = %q", c.Name())
	}
	if c.StateLen() != 4 {
		t.Fatalf("state len = %d", c.StateLen())
	}
	state := make([]float64, c.StateLen())
	// Priming: both stages see 10 for the first time.
	if got := c.Forecast(state, 10); got != 10 {
		t.Fatalf("priming = %v", got)
	}
	// Trend turns 14 into 18, the EWMA blends 10 and 18 into 14.
	if got := c.Forecast(state, 14); math.Abs(got-14) > 1e-12 {
		t.Fatalf("chained forecast = %v, want 14", got)
	}
}

func TestEmptyChainIsPassthrough(t *testing.T) {
	var c Chain
	if c.Name() != "passthrough" {
		t.Fatalf("name = %q", c.Name())
	}
	if c.StateLen() != 0 {
		t.Fatalf("state len = %d", c.StateLen())
	}
	if got := c.Forecast(nil, 7); got != 7 {
		t.Fatalf("forecast = %v", got)
	}
}

// TestParseForecasterGrammar pins the spec-string grammar end to end:
// the forms the -forecast flags accept and the name each resolves to.
func TestParseForecasterGrammar(t *testing.T) {
	cases := []struct {
		in   string
		name string // resolved Name(); "passthrough" for the nil forecaster
	}{
		{"", "passthrough"},
		{"passthrough", "passthrough"},
		{"  trend  ", "trend"},
		{"ewma", "ewma(0.50)"},
		{"ewma:0.25", "ewma(0.25)"},
		{"ewma:1", "ewma(1.00)"},
		{"trend>ewma:0.5", "trend>ewma(0.50)"},
		{"trend > ewma", "trend>ewma(0.50)"},
		{"passthrough>trend", "passthrough>trend"},
	}
	for _, tc := range cases {
		f, err := ParseForecaster(tc.in)
		if err != nil {
			t.Errorf("ParseForecaster(%q) failed: %v", tc.in, err)
			continue
		}
		name := "passthrough"
		if f != nil {
			name = f.Name()
		}
		if name != tc.name {
			t.Errorf("ParseForecaster(%q) = %q, want %q", tc.in, name, tc.name)
		}
	}
}

// TestParseForecasterErrors covers the grammar's rejection paths:
// unknown stage names, malformed chains, bad and out-of-range EWMA
// alphas, and dangling '>' separators. Each error must name the
// offending fragment so a mistyped -forecast flag is self-diagnosing.
func TestParseForecasterErrors(t *testing.T) {
	cases := []struct {
		in   string
		want string // error substring
	}{
		{"exp", `unknown forecaster "exp"`},
		{"trend>exp", `unknown forecaster "exp"`},
		{"trend>>ewma", `unknown forecaster ""`},
		{"trend>", `unknown forecaster ""`},
		{">trend", `unknown forecaster ""`},
		{">", `unknown forecaster ""`},
		{"ewma:", `bad ewma alpha in "ewma:"`},
		{"ewma:fast", `bad ewma alpha in "ewma:fast"`},
		{"ewma:0", "out of (0, 1]"},
		{"ewma:-0.5", "out of (0, 1]"},
		{"ewma:1.5", "out of (0, 1]"},
		{"trend>ewma:2>passthrough", "out of (0, 1]"},
	}
	for _, tc := range cases {
		f, err := ParseForecaster(tc.in)
		if err == nil {
			t.Errorf("ParseForecaster(%q) accepted, resolved to %v", tc.in, f)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseForecaster(%q) error = %v, want substring %q", tc.in, err, tc.want)
		}
		if !strings.HasPrefix(err.Error(), "heat: ") {
			t.Errorf("ParseForecaster(%q) error %q lacks the \"heat: \" prefix", tc.in, err)
		}
		// ParseSpec hands the flag's error through unchanged.
		if _, specErr := ParseSpec(64, tc.in); specErr == nil || specErr.Error() != err.Error() {
			t.Errorf("ParseSpec(64, %q) error = %v, want %v", tc.in, specErr, err)
		}
	}
}
