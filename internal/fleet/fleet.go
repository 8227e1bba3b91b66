// Package fleet simulates a datacenter-scale Stretch deployment: N servers
// × SMT cores, each core running a queueing-backed latency-sensitive
// service colocated with a batch thread and governed by its own §IV-C
// monitor.Controller. A multi-client traffic spec (internal/loadgen)
// drives the per-window arrival rates.
//
// Execution is window-major and closed-loop (run.go): newEngine resolves
// the run's constants, the engine advances the whole fleet one monitoring
// window at a time, and aggregate folds the horizon into a Result. Every
// engine selection runs one execution path. Within a window a serial
// cohort walk (cohort.go) folds the fleet into spans of identical cores,
// answers the spans it can in closed form, and hands the per-core
// discrete residue to a goroutine worker pool — every core draws from its
// own (seed, core, window)-derived rng stream, so aggregate results are
// bit-identical for identical seeds regardless of worker count. A barrier
// then collects the window's measured tails, modes, violations and
// controller slack into a WindowObservation. That observation is handed
// to the scheduler's Step for the *next* window, which is what lets
// latency-aware policies (PolicyFeedback) react to measured violations the
// way §IV-C's controller reacts to measured slack; the open-loop policies
// ignore it and reproduce their precomputed schedules exactly. Controller
// state survives across windows (a core keeps its monitor, shared by
// value with every core of identical history, until the scheduler hands
// it to a different client), and each worker reuses one
// queueing.Simulator so the hot loop pays no per-window allocations.
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
// supplied, the legacy uniform scalars (BatchSpeedupB, LSSlowdownB,
// QModeBatchCost) applied identically to every client, which reproduces
// pre-calibration results byte-identically. Either way the per-window hot
// path only indexes a per-client array; no table lookup or map access sits
// on the per-request path. Results (result.go) aggregate into per-client
// and fleet-wide tails (p99/p99.9 over core-window tails), QoS-violation
// window counts, engaged-core-hours, batch core-hours gained versus an
// equal-partitioning deployment, and the per-window fleet series in
// Result.WindowTrace.
//
// Tail quantiles are estimated by Config.TailEstimator. The default is
// the mergeable log-bucketed histogram (stats.Histogram): each worker
// records its cores' window tails into per-client shards, and the barrier
// merges shards into per-client window, per-client run and fleet-wide
// histograms — integer bucket counts merge associatively, so the
// nondeterministic core-to-worker mapping cannot perturb any aggregate,
// and memory stays constant in the request count (the enabler for
// 10k+-core runs). The exact estimator retains every core-window tail in
// sorted samples instead; it reproduces the pre-histogram golden files
// byte-identically and serves as the accuracy reference.
//
// Which client a core serves each window — and at what rate — is decided
// by the scheduler (see scheduler.go): the static Fraction split, elastic
// proportional reallocation, power-of-two-choices routing, or closed-loop
// feedback reallocation (feedback.go), optionally under a loadgen.Scenario
// of server drains, traffic surges and heterogeneous server generations.
package fleet

import (
	"sync/atomic"

	"stretch/internal/monitor"
	"stretch/internal/queueing"
	"stretch/internal/rng"
	"stretch/internal/stats"
)

// engine is one run's window-major execution state, built by newEngine.
// Per-core-per-window records are kept flat (core-major: index
// core×windows+window) so the final aggregation can replay the exact
// accumulation order of the former core-major engine, keeping aggregate
// floats bit-identical.
type engine struct {
	// cfg is the validated input; est, policy and autoPolicy are its
	// resolved tail estimator, scheduler policy and autoscaling policy.
	cfg        Config
	est        stats.TailEstimator
	policy     Policy
	autoPolicy AutoscalePolicy

	// st is the planned scheduler, stepped once per window; tracer is its
	// decision-trace view, nil when tracing is off.
	st     Stepper
	tracer decisionTracer

	// The persistent worker pool and one reusable Simulator per worker.
	pool *workerPool
	sims []*queueing.Simulator

	// winTrace and decTrace collect one record per finished window; the
	// last observation is the next window's scheduler feedback.
	winTrace []WindowObservation
	decTrace []DecisionRecord

	nCores, windows, windowReq int
	migPenalty                 float64
	monCfg                     func(float64) monitor.Config
	engineSel                  Engine

	// lsSlowMode and batchRelMode are the per-client per-mode performance
	// deltas, indexed [client][core.Mode]: the LS thread's slowdown
	// (applied to the perf factor) and the batch thread's throughput
	// relative to equal partitioning. Resolved once before the first
	// window — from the calibration table or the uniform scalars — so the
	// hot loop pays one array index per core-window, nothing per request.
	lsSlowMode   [][3]float64
	batchRelMode [][3]float64

	targets []float64
	qcfgs   []queueing.Config
	perf    []float64
	streams []rng.Stream

	// solveCache is the lock-striped analytic solve cache shared by every
	// worker and the counterfactual evaluator (the solver is pure, so
	// sharing cannot perturb results — it stops W workers re-solving the
	// same rate plateau W times); solves counts its distinct successful
	// first insertions, surfaced as Result.AnalyticSolves.
	solveCache *queueing.TailCache
	solves     atomic.Int64

	// Cohort walk state (cohort.go). classOf maps each core to its
	// controller-equivalence class in classes (−1: none), swBase banks
	// switch counts a core accrued in classes it has left, and freshFor/
	// mergeMap/worklist/retired are per-window scratch for the span walk.
	// Under the histogram estimator cohortShard collects the coalesced
	// AddN deposits for the barrier merge.
	classOf     []int32
	classes     []cohortClass
	freeClass   []int32
	retired     []int32
	swBase      []uint64
	mergeMap    map[mergeKey]int32
	freshFor    []int32
	worklist    []workItem
	cohortShard []*stats.Histogram

	// Counterfactual evaluator state (decision.go), wired by
	// initCounterfactual when Config.CounterfactualK > 0: a dedicated
	// Simulator and rng branch (the evaluator runs single-threaded behind
	// the Step call, so worker count cannot touch it), a per-window
	// (client, count) → tail cache, and the per-client load scratch; its
	// analytic solves share solveCache.
	cfK, cfMinCores int
	cfRng           *rng.Stream
	cfSim           *queueing.Simulator
	cfCache         map[cfKey]float64
	cfLoad          []float64

	// Fluid fast-path classification inputs, resolved once per run:
	// utilCoef[ci] turns a per-core rate into a utilization (util =
	// rate·utilCoef/perf), fluidOK[ci] records whether the client's
	// service is inside the analytic solver's structural caps, and
	// unsteady[ci][w] flags windows with burst or surge turbulence, which
	// auto keeps on the discrete path.
	utilCoef []float64
	fluidOK  []bool
	unsteady [][]bool

	tails    []float64
	batchRel []float64
	modeB    []bool
	analytic []bool
	client   []int16
	errs     []error

	// Exact estimator: winSamples holds one reusable per-client sample for
	// the window observation's tail quantile, filled and drained at each
	// barrier.
	winSamples []*stats.Sample

	// Histogram estimator: each worker records its cores' window tails
	// into its own per-client shard (shards[worker][client]); the barrier
	// merges shards into winHists for the window quantile, then folds them
	// into the per-client runHists and the fleet-wide fleetHist. All share
	// one geometry, and integer bucket counts merge associatively, so the
	// aggregate is bit-identical regardless of how cores land on workers.
	shards    [][]*stats.Histogram
	winHists  []*stats.Histogram
	runHists  []*stats.Histogram
	fleetHist *stats.Histogram
}
