// Engine selection: the analytic fast path. The discrete simulator runs a
// core-window at one stationary rate and perf factor, so once the core's
// controller mode has settled (it matches the previous window) and the window
// is inside the solver envelope, its queueing equilibrium describes it and
// queueing.AnalyticTail answers it in closed form. Cold starts — handovers and
// migrations among them — fail the mode test; a burst or surge only changes
// the rate the envelope sees. A diurnal fleet mostly cruises between rate
// plateaus, which turns a 1M-core × 24h day from hours of event simulation
// into seconds, plus a discrete residue of mode switches and peaks.
//
// The engine selection changes no execution path: every engine runs the
// cohort walk (cohort.go), and the selection only sets what its
// steadiness classifier may answer analytically — nothing under discrete,
// steady windows under auto.
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
	// EngineDiscrete runs every core-window through the event-level
	// queueing simulator — the default, byte-identical to all results
	// predating the engine selector.
	EngineDiscrete Engine = 0
	// EngineAuto classifies each (core, window): a settled-mode window
	// inside the solver envelope takes the analytic fast path; a mode
	// switch, a cold start (migrations included) or utilization above
	// queueing.AnalyticMaxUtilization keeps full discrete fidelity. Its
	// value stays 2 although 1 is unused: Result.Engine is JSON-encoded as
	// an int, so renumbering would change every auto Result digest.
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

// steadyTail answers a core-window in closed form when it lies inside the
// solver envelope: the client's service passed the solver's structural
// caps (analyticOK, all false under the discrete engine) and the
// mode-adjusted utilization is within queueing.AnalyticMaxUtilization.
// !ok sends the caller — the cohort walk or the counterfactual evaluator —
// to the discrete path; a solver refusal is cached as NaN, never an error.
// The solve cache is keyed by the exact bits of rate and perf, and the
// solver is pure, so a hit is the float a solve would give. Only the engine
// goroutine calls it, so AnalyticSolves (first insertions of successful
// solves) follows walk order at any worker count. The sampleEquiv passed
// to the solver reproduces the discrete window's finite-sample rank
// convention.
func (e *engine) steadyTail(ci int16, rate, perf float64) (float64, bool) {
	if !e.analyticOK[ci] || !(rate*e.utilCoef[ci]/perf <= queueing.AnalyticMaxUtilization) {
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
