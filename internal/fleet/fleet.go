// Package fleet simulates a datacenter-scale Stretch deployment: N servers
// × SMT cores, each core running a queueing-backed latency-sensitive
// service colocated with a batch thread and governed by its own §IV-C
// monitor.Controller. A multi-client traffic spec (internal/loadgen)
// drives the per-window arrival rates.
//
// Execution is window-major and closed-loop (run.go): newEngine resolves
// the run's constants, the engine advances the whole fleet one monitoring
// window at a time, and aggregate turns the run totals into a Result. Every
// engine selection runs one execution path. Within a window a serial
// cohort walk (cohort.go) folds the fleet into spans of identical cores,
// answers the spans it can in closed form, and hands the per-core
// discrete residue to goroutines started for the window, one per reusable
// queueing.Simulator — every core draws from its own (seed, core,
// window)-derived rng stream, so aggregate results are bit-identical for
// identical seeds regardless of worker count. A barrier
// then collects the window's measured tails, modes, violations and
// controller slack into a WindowObservation and folds the window into the
// run totals. The observation is handed to the scheduler's Step for the
// *next* window, which is what lets latency-aware policies
// (PolicyFeedback) react to measured violations the way §IV-C's
// controller reacts to measured slack; the open-loop policies
// ignore it and reproduce their precomputed schedules exactly. Controller
// state survives across windows (a core keeps its own monitor until it
// changes client or stops serving for a window), and each worker reuses
// one queueing.Simulator so the hot loop pays no per-window allocations.
//
// Per window, each core simulates its share of its client's arrival rate
// through the request-level queueing model at the perf factor its current
// mode implies, feeds the measured tail to its controller, and credits the
// colocated batch thread relative to equal partitioning (B-mode gains,
// Q-mode pays). The per-mode deltas come from one of two sources, resolved
// once per client before the first window: a calibration table
// (Config.Calibration) derived from the cycle-level core model, which makes
// both the LS slowdown and the batch credit specific to the client's
// (service, batch-pairing) colocation in every mode — or, when no table is
// supplied, the uniform scalars (BatchSpeedupB, LSSlowdownB and the fixed
// Q-mode batch cost) applied identically to every client. Either way the
// per-window hot path only indexes a per-client array; no table lookup or
// map access sits on the per-request path. Results (result.go) aggregate into per-client
// and fleet-wide tails (p99/p99.9 over core-window tails), QoS-violation
// window counts, engaged-core-hours, batch core-hours gained versus an
// equal-partitioning deployment, and the per-window fleet series in
// Result.WindowTrace.
//
// Tail quantiles are estimated by Config.TailEstimator, whose store
// stats.NewTail builds. The default is the log-bucketed histogram
// (stats.Histogram), whose memory stays constant in the request count
// (the enabler for 10k+-core runs). The exact estimator retains every
// core-window tail in exact samples instead and serves as the accuracy
// reference. Each serving core-window's tail is deposited once, on the
// engine goroutine, into its client's window and run stores and the
// fleet store: coalesced spans during the walk, the discrete residue
// after the residue goroutines join. Either store's quantiles depend only on the
// multiset of tails, so that deposit order cannot perturb any aggregate.
//
// Which client a core serves each window — and at what rate — is decided
// by the scheduler (see scheduler.go): the static Fraction split, elastic
// proportional reallocation, power-of-two-choices routing, or closed-loop
// feedback reallocation (feedback.go), optionally under a loadgen.Scenario
// of server drains, traffic surges and heterogeneous server generations.
package fleet

import (
	"stretch/internal/monitor"
	"stretch/internal/queueing"
	"stretch/internal/rng"
	"stretch/internal/stats"
)

// engine is one run's window-major execution state, built by newEngine.
// Per-core records live for one window, and the barrier folds each window
// into run totals; only the exact estimator's run stores grow with
// cores × windows, because its quantiles need every tail.
type engine struct {
	// cfg is the validated input and est its resolved tail estimator.
	cfg Config
	est stats.TailEstimator

	// st is the scheduler, stepped once per window; it also owns the
	// resolved scheduler tunings and the decision record of the current
	// window.
	st *elastic

	// One reusable Simulator per residue worker; runWindow starts one
	// goroutine per share of each window's discrete residue, share s on
	// sims[s].
	sims []*queueing.Simulator

	// winTrace and decTrace collect one record per finished window; the
	// last observation is the next window's scheduler feedback.
	winTrace []WindowObservation
	decTrace []DecisionRecord

	nCores, windows, windowReq int

	// lsSlowMode and batchRelMode are the per-client per-mode performance
	// deltas, indexed [client][core.Mode]: the LS thread's slowdown
	// (applied to the perf factor) and the batch thread's throughput
	// relative to equal partitioning. Resolved once before the first
	// window — from the calibration table or the uniform scalars — so the
	// hot loop pays one array index per core-window, nothing per request.
	lsSlowMode   [][3]float64
	batchRelMode [][3]float64

	// qcfgs is each client's queueing config, whose QoSTargetMs is the
	// client's SLO-scaled target. serverPerf is each server's generation
	// perf factor; the walk reads it server by server. root is the run's
	// rng root: a residue core-window's seed is root.Derive(core)
	// .Derive(window), and Derive never advances its receiver, so the
	// residue workers share root read-only.
	qcfgs      []queueing.Config
	serverPerf []float64
	root       *rng.Stream

	// solveCache memoises analytic solves and refusals for the cohort walk
	// and the counterfactual evaluator, both of which run on the engine
	// goroutine (residue workers only simulate); it is nil under the
	// discrete engine. solves counts its distinct successful first
	// insertions, surfaced as Result.AnalyticSolves.
	solveCache *queueing.TailCache
	solves     int

	// Cohort walk state (cohort.go), one slot per core: ctl is the core's
	// controller, ctlClient the client it serves (−1: none) and lastMode
	// the mode it ran this window in, which the walk writes and observe
	// reads. switches banks the switch counts of released controllers,
	// fresh holds one reset controller per client, whose copies share its
	// tuning, and worklist is the window's discrete residue.
	ctl       []monitor.Controller
	ctlClient []int16
	lastMode  []int8
	switches  uint64
	fresh     []monitor.Controller
	worklist  []workItem

	// Counterfactual evaluator state (decision.go), wired by
	// initCounterfactual when Config.CounterfactualK > 0: an rng branch
	// (the evaluator runs single-threaded behind the Step call, on
	// e.sims[0] before the residue workers start, so worker count cannot
	// touch it), a per-window (client, count) → tail cache, and the
	// per-client load scratch; its analytic solves go through solveCache
	// on the engine goroutine, before the window's walk.
	cfK     int
	cfRng   *rng.Stream
	cfCache map[cfKey]float64
	cfLoad  []float64

	// tails is the window's per-core scratch, read by the barrier: each
	// serving core's tail.
	tails []float64
	// errs holds one slot per residue share: its first, lowest, failure.
	errs []error

	// analyticCW and cohortCW count the window's core-windows answered
	// analytically and by the cohort walk; the barrier copies them into
	// the observation. batchCW[client][mode] counts the run's serving
	// core-windows by the mode whose batch credit they earned, which is
	// all the batch gain needs: the credit is batchRelMode[client][mode].
	analyticCW, cohortCW int
	batchCW              [][3]int64

	// Tail stores of the resolved estimator, filled by deposit:
	// winTails holds each client's tails for the window observation's
	// quantile and is drained at each barrier; runTails and fleetTail keep
	// every serving core-window tail for the per-client and fleet-wide run
	// quantiles.
	winTails  []stats.Tail
	runTails  []stats.Tail
	fleetTail stats.Tail
}
