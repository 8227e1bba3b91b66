// Engine selection: the analytic fast path. The discrete simulator runs a
// core-window from an empty queue at one stationary rate and perf factor,
// and the controller's mode and any migration penalty are already in perf,
// so the window's queueing equilibrium describes it. Under auto,
// queueing.AnalyticTail answers a window in closed form exactly when the
// solver accepts it; a burst or surge only changes the rate it sees. A
// diurnal fleet mostly cruises between rate plateaus, which turns a
// 1M-core × 24h day from hours of event simulation into seconds, plus a
// discrete residue of the windows the solver refuses.
//
// The engine selection changes no execution path: every engine runs the
// cohort walk (cohort.go), and the selection only sets what it may answer
// analytically — nothing under discrete, whatever the solver accepts
// under auto.
package fleet

import (
	"fmt"
	"math"

	"stretch/internal/queueing"
)

// Engine selects how per-core window tails are computed.
type Engine int

// Engines.
const (
	// EngineDiscrete runs every core-window with load through the
	// event-level queueing simulator — the default. It answers nothing
	// analytically; only zero-rate windows skip the simulator.
	EngineDiscrete Engine = 0
	// EngineAuto answers each (core, window) the solver accepts on the
	// analytic fast path; a solver refusal — a structural cap, or
	// utilization above queueing.AnalyticMaxUtilization — keeps full
	// discrete fidelity. Its value stays 2 although 1 is unused:
	// Result.Engine is JSON-encoded as an int, so renumbering would change
	// every auto Result digest.
	EngineAuto Engine = 2
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineDiscrete:
		return "discrete"
	case EngineAuto:
		return "auto"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Validate rejects unknown engine values.
func (e Engine) Validate() error {
	switch e {
	case EngineDiscrete, EngineAuto:
		return nil
	}
	return fmt.Errorf("fleet: unknown engine %d", int(e))
}

// ParseEngine resolves an engine name (discrete|auto).
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "discrete":
		return EngineDiscrete, nil
	case "auto":
		return EngineAuto, nil
	}
	return 0, fmt.Errorf("fleet: unknown engine %q (discrete|auto)", s)
}

// analyticCacheLimit bounds the run's solve cache; a fleet day offers only
// as many distinct (client, rate, perf) triples as the traffic has rate
// plateaus, so the limit exists purely as a safety valve against
// pathological per-core rate diversity (e.g. p2c routing). Eviction is
// generational (queueing.TailCache), not a wholesale clear: hot plateau
// entries that keep being hit survive any churn of cold keys.
const analyticCacheLimit = 1 << 16

// steadyTail answers a core-window in closed form when the solver accepts
// it. The solver alone judges its envelope: queueing.AnalyticTail refuses
// a service outside its structural caps and a mode-adjusted utilization
// above queueing.AnalyticMaxUtilization, and steadyTail caches any refusal
// as NaN, never an error. !ok sends the caller — the cohort walk or the
// counterfactual evaluator — to the discrete path, as does the discrete
// engine, which has no solve cache. The cache is keyed by the exact bits
// of rate and perf, and the solver is pure, so a hit is the float a solve
// would give. Only the engine goroutine calls it, so AnalyticSolves (first
// insertions of successful solves) follows walk order at any worker
// count. The sampleEquiv passed to the solver reproduces the discrete
// window's finite-sample rank convention.
func (e *engine) steadyTail(ci int16, rate, perf float64) (float64, bool) {
	if e.solveCache == nil {
		return 0, false
	}
	k := queueing.TailKey{Service: int32(ci), Rate: math.Float64bits(rate), Perf: math.Float64bits(perf)}
	if v, hit := e.solveCache.Lookup(k); hit {
		return v, !math.IsNaN(v)
	}
	t, err := queueing.AnalyticTail(e.qcfgs[ci], rate, perf, e.windowReq)
	if err != nil {
		e.solveCache.Insert(k, math.NaN())
		return 0, false
	}
	if e.solveCache.Insert(k, t) {
		e.solves++
	}
	return t, true
}
