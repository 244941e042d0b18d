package heat

import (
	"fmt"
	"strings"
)

// Forecaster predicts a region's next-quantum heat from its decayed
// observation, in the style of memtierd's chained heat forecasters. A
// forecaster is pure configuration: per-region state lives in a flat
// float64 slice owned by the tracker (StateLen values per region), so
// regions can split and merge without the forecaster keeping maps. A
// zeroed state slice means "never observed"; Forecast must treat it as
// priming, not as an observation of zero.
//
// Forecast is called during the sharded cooling sweep and must be pure
// (no shared mutable state, no allocation dependence on call order):
// the same (state, observed) pair must yield the same prediction on
// every shard worker.
type Forecaster interface {
	// Name identifies the forecaster ("passthrough", "ewma(0.30)", ...).
	Name() string
	// StateLen is the number of float64s of per-region state required.
	StateLen() int
	// Forecast consumes the region's observed heat for the quantum,
	// updates state (len == StateLen), and returns the predicted
	// next-quantum heat. Predictions are clamped non-negative by the
	// caller's contract; implementations should not return negatives.
	Forecast(state []float64, observed float64) float64
}

// Passthrough predicts exactly what was observed — the baseline with
// zero state, and the only forecaster under which a granularity-1
// RegionTracker is bit-identical to the exact tracker.
type Passthrough struct{}

// Name implements Forecaster.
func (Passthrough) Name() string { return "passthrough" }

// StateLen implements Forecaster.
func (Passthrough) StateLen() int { return 0 }

// Forecast implements Forecaster.
func (Passthrough) Forecast(_ []float64, observed float64) float64 { return observed }

// EWMA smooths observations exponentially: the first observation
// primes the average (matching stats.EWMA), later ones blend in with
// weight Alpha. Low alpha damps transient spikes; high alpha tracks
// phase changes quickly.
type EWMA struct {
	// Alpha is the blend weight in (0, 1].
	Alpha float64
}

// Name implements Forecaster.
func (f EWMA) Name() string { return fmt.Sprintf("ewma(%.2f)", f.Alpha) }

// StateLen implements Forecaster: [0] the running average, [1] a primed
// flag (0 until the first observation).
func (EWMA) StateLen() int { return 2 }

// Forecast implements Forecaster.
func (f EWMA) Forecast(state []float64, observed float64) float64 {
	if f.Alpha <= 0 || f.Alpha > 1 {
		panic(fmt.Sprintf("heat: EWMA alpha %v out of (0, 1]", f.Alpha))
	}
	if state[1] == 0 {
		state[0] = observed
		state[1] = 1
		return observed
	}
	state[0] += f.Alpha * (observed - state[0])
	return state[0]
}

// LinearTrend extrapolates the first difference: predicted = observed +
// (observed - previous), clamped at zero. It leads ramps (heating
// regions get promoted a quantum earlier) at the cost of overshooting
// peaks.
type LinearTrend struct{}

// Name implements Forecaster.
func (LinearTrend) Name() string { return "trend" }

// StateLen implements Forecaster: [0] the previous observation, [1] a
// primed flag.
func (LinearTrend) StateLen() int { return 2 }

// Forecast implements Forecaster.
func (LinearTrend) Forecast(state []float64, observed float64) float64 {
	if state[1] == 0 {
		state[0] = observed
		state[1] = 1
		return observed
	}
	pred := 2*observed - state[0]
	state[0] = observed
	if pred < 0 {
		return 0
	}
	return pred
}

// Chain composes forecasters in order: each stage's prediction is the
// next stage's observation (memtierd's heatforecaster_chain). An empty
// chain is a passthrough.
type Chain []Forecaster

// Name implements Forecaster.
func (c Chain) Name() string {
	if len(c) == 0 {
		return "passthrough"
	}
	names := make([]string, len(c))
	for i, f := range c {
		names[i] = f.Name()
	}
	return strings.Join(names, ">")
}

// StateLen implements Forecaster.
func (c Chain) StateLen() int {
	n := 0
	for _, f := range c {
		n += f.StateLen()
	}
	return n
}

// Forecast implements Forecaster.
func (c Chain) Forecast(state []float64, observed float64) float64 {
	off := 0
	for _, f := range c {
		n := f.StateLen()
		observed = f.Forecast(state[off:off+n], observed)
		off += n
	}
	return observed
}

// ParseForecaster builds a forecaster from a spec string, the grammar
// the cmds' -forecast flags speak: "" and "passthrough" mean no
// forecasting (nil), "trend" is LinearTrend, "ewma" is EWMA at alpha
// 0.5 and "ewma:0.3" sets the alpha, and ">" chains stages in order
// ("trend>ewma:0.5"), each stage feeding the next as Chain does.
func ParseForecaster(s string) (Forecaster, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "passthrough" {
		return nil, nil
	}
	parts := strings.Split(s, ">")
	chain := make(Chain, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		switch {
		case p == "trend":
			chain = append(chain, LinearTrend{})
		case p == "ewma":
			chain = append(chain, EWMA{Alpha: 0.5})
		case strings.HasPrefix(p, "ewma:"):
			var alpha float64
			if _, err := fmt.Sscanf(p[len("ewma:"):], "%g", &alpha); err != nil {
				return nil, fmt.Errorf("heat: bad ewma alpha in %q", p)
			}
			if alpha <= 0 || alpha > 1 {
				return nil, fmt.Errorf("heat: ewma alpha %v out of (0, 1]", alpha)
			}
			chain = append(chain, EWMA{Alpha: alpha})
		case p == "passthrough":
			chain = append(chain, Passthrough{})
		default:
			return nil, fmt.Errorf("heat: unknown forecaster %q (want passthrough, trend, ewma[:alpha], or a '>' chain)", p)
		}
	}
	if len(chain) == 1 {
		return chain[0], nil
	}
	return chain, nil
}

// ParseSpec maps the cmds' -region/-forecast flags onto a tracker spec:
// region 0 keeps the exact per-page counters, anything else tracks at
// that granularity with the forecaster chain ParseForecaster builds. A
// forecaster with region 0, or a bad granularity, is left for
// Spec.Validate to reject.
func ParseSpec(regionPages int, forecast string) (Spec, error) {
	f, err := ParseForecaster(forecast)
	if err != nil {
		return Spec{}, err
	}
	if regionPages == 0 {
		return Spec{Forecaster: f}, nil
	}
	return Spec{Kind: Region, RegionPages: regionPages, Forecaster: f}, nil
}
