// Engine selection: the analytic fast path. A steady core-window — stationary
// arrival rate, settled controller mode, no migration cold-start, no burst
// or surge turbulence — is fully described by its queueing equilibrium, so
// the engine can answer it with queueing.AnalyticTail instead of simulating
// hundreds of discrete requests. At fleet scale almost every core-window is
// steady (a diurnal fleet spends its life cruising between rate plateaus),
// which is what turns a 1M-core × 24h day from hours of event simulation
// into seconds of closed-form evaluation plus a residue of genuinely
// transitional windows on the discrete path.
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
	// EngineAuto classifies each (core, window): steady windows take the
	// analytic fast path, transitional windows — mode switch, migration
	// cold-start, burst or surge turbulence, utilization above
	// queueing.AnalyticMaxUtilization — keep full discrete fidelity. Its
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

// analyticTail answers one steady core-window from the run's solve cache,
// solving on a miss. Keys carry the exact bit patterns of rate and perf,
// and the solver is a pure function, so a hit is the same float a solve
// would give. Only the engine goroutine calls it (the cohort walk and the
// counterfactual evaluator); pool workers never touch the cache or the
// solve counter, so auto runs are bit-identical across worker counts and
// AnalyticSolves follows walk order. The sampleEquiv passed to the solver
// makes the analytic quantile reproduce the discrete window's
// finite-sample rank convention rather than improve on it. A solver
// refusal (the solver's own utilization rounding past the ceiling the
// classifier passed, structural caps) is cached as NaN and reported as
// !ok: the caller falls back to the discrete path. First insertions of
// successful solves feed Result.AnalyticSolves.
func (e *engine) analyticTail(ci int16, rate, perf float64) (float64, bool) {
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
