// Package stretch is a library-level reproduction of "Stretch: Balancing
// QoS and Throughput for Colocated Server Workloads on SMT Cores"
// (Margaritov et al., HPCA 2019).
//
// Stretch is a software-controlled asymmetric ROB/LSQ partitioning
// mechanism for dual-threaded SMT cores: when a latency-sensitive service
// runs below peak load, its tail-latency slack lets system software shift
// most of the instruction window to a colocated batch thread (B-mode),
// boosting batch throughput without violating QoS; under high load the
// skew can be reversed (Q-mode).
//
// The package exposes the three layers of the reproduction:
//
//   - a cycle-level SMT core model with programmable partition limit
//     registers (Colocation, Solo);
//   - the workload catalogue standing in for CloudSuite and SPEC CPU2006
//     (Services, BatchWorkloads);
//   - the software control plane and the full experiment suite
//     regenerating every table and figure in the paper (Controller,
//     RunExperiment, Experiments);
//   - the fleet layer: a synthetic traffic generator (Traffic,
//     Constant/Ramp/Diurnal/Burst arrival shapes) feeding a sharded
//     datacenter-scale simulation of thousands of controller-governed SMT
//     cores (Fleet, FleetConfig) — the §VI-D cluster studies scaled from
//     one core to a fleet — executed window-major with a measurement
//     barrier per window, scheduled by a per-window policy
//     (Scheduler: static, elastic proportional, power-of-two-choices, and
//     closed-loop feedback on measured tails) under replayable scenario
//     events (FleetScenario: server drains and restores, traffic surges,
//     heterogeneous server generations), with the per-window fleet series
//     exposed as FleetResult.WindowTrace. Tail quantiles are estimated by
//     mergeable log-bucketed histograms by default (TailEstimator), which
//     is what lets the fleet scale to tens of thousands of cores with
//     constant per-core memory; the exact sample estimator remains
//     available for small runs and accuracy comparisons. The fleet's
//     per-mode performance arithmetic can be calibrated from the
//     cycle-level layer (CalibrationTable, DefaultCalibration): each
//     client's B-/Q-mode LS slowdown and batch credit then come from its
//     own (service, batch-pairing) colocation's measured cells instead of
//     fleet-wide scalars, making datacenter-level throughput claims
//     traceable to the paper's microarchitectural model;
//   - the trace layer: a versioned CSV/JSONL trace-file format for
//     recorded per-window, per-client traffic (TraceFile, LoadTrace), a
//     deterministic synthesizer emitting the same format from generative
//     specs (SynthTrace) with ServeGen-style arrival realism —
//     Gamma-/Weibull-mixed Poisson processes (ArrivalProcess) and Zipf
//     client cohorts (ExpandCohort) — and fleet replay through
//     TraceFile.Traffic, bit-identical to simulating the generative spec
//     at the same seed.
//
// For policy introspection and tuning, a fleet run can record every
// scheduling decision (DecisionTraceLevel, FleetResult.DecisionTrace)
// with per-client allocation deltas and the signals that drove them,
// evaluate alternative assignments per window to measure the chosen
// assignment's regret (DecisionCounterfactual), and rank scheduler
// candidates over a trace suite by weighted multi-objective fitness
// (FitnessWeights, SearchSchedulers, SearchGrid).
//
// Quick start:
//
//	col, _ := stretch.NewColocation(stretch.WebSearch, "zeusmp")
//	res, _ := col.Measure()                      // equal partitioning
//	col, _ = stretch.NewColocation(stretch.WebSearch, "zeusmp",
//	    stretch.WithBMode())                     // 56-136 skew
//	boosted, _ := col.Measure()
package stretch

import (
	"fmt"

	"stretch/internal/calib"
	"stretch/internal/colocate"
	"stretch/internal/core"
	"stretch/internal/experiments"
	"stretch/internal/fleet"
	"stretch/internal/loadgen"
	"stretch/internal/monitor"
	"stretch/internal/sampling"
	"stretch/internal/stats"
	"stretch/internal/trace"
	"stretch/internal/tracefile"
	"stretch/internal/workload"
)

// Names of the four latency-sensitive services (Table III).
const (
	DataServing    = workload.DataServing
	WebServing     = workload.WebServing
	WebSearch      = workload.WebSearch
	MediaStreaming = workload.MediaStreaming
)

// Mode re-exports the Stretch operating modes.
type Mode = core.Mode

// Stretch operating modes (§IV): Baseline equal split, batch boost, QoS
// boost.
const (
	ModeBaseline = core.ModeBaseline
	ModeB        = core.ModeB
	ModeQ        = core.ModeQ
)

// BModeSkew and QModeSkew are the paper's headline partition points: the
// LS thread's ROB entries out of 192.
const (
	BModeSkew = experiments.BModeSkew
	QModeSkew = experiments.QModeSkew
)

// Services returns the latency-sensitive workload names.
func Services() []string { return workload.ServiceNames() }

// BatchWorkloads returns the 29 SPEC CPU2006 stand-in names.
func BatchWorkloads() []string { return workload.BatchNames() }

// Option customises a Colocation.
type Option func(*options) error

type options struct {
	cfg  core.Config
	spec sampling.Spec
}

// WithBMode applies the headline batch-boost skew (56-136).
func WithBMode() Option {
	return func(o *options) error { return o.cfg.SetSkew(BModeSkew) }
}

// WithQMode applies the headline QoS-boost skew (136-56).
func WithQMode() Option {
	return func(o *options) error { return o.cfg.SetSkew(QModeSkew) }
}

// WithSkew applies an arbitrary partitioning: ls ROB entries for the
// latency-sensitive thread, the rest for the batch thread.
func WithSkew(lsEntries int) Option {
	return func(o *options) error { return o.cfg.SetSkew(lsEntries) }
}

// WithDynamicROB replaces static partitioning with a dynamically shared
// window (the Fig. 11 configuration).
func WithDynamicROB() Option {
	return func(o *options) error {
		o.cfg.ROBPolicy = core.ROBDynamic
		return nil
	}
}

// WithConfig replaces the whole core configuration.
func WithConfig(cfg core.Config) Option {
	return func(o *options) error {
		o.cfg = cfg
		return nil
	}
}

// WithSamples overrides the sampling budget (samples × (warmup+measure)
// instructions per thread).
func WithSamples(samples int, warmup, measure uint64) Option {
	return func(o *options) error {
		if samples <= 0 || measure == 0 {
			return fmt.Errorf("stretch: invalid sampling budget")
		}
		o.spec = sampling.Spec{Samples: samples, Warmup: warmup, Measure: measure, Seed: o.spec.Seed}
		return nil
	}
}

// WithSeed reseeds the whole measurement.
func WithSeed(seed uint64) Option {
	return func(o *options) error {
		o.spec.Seed = seed
		return nil
	}
}

// Colocation measures a latency-sensitive workload sharing an SMT core
// with a batch workload.
type Colocation struct {
	ls, batch trace.Profile
	opt       options
}

// NewColocation builds a colocation of the named workloads. The
// latency-sensitive workload runs on hardware thread 0.
func NewColocation(ls, batch string, opts ...Option) (*Colocation, error) {
	lp, err := workload.Lookup(ls)
	if err != nil {
		return nil, err
	}
	bp, err := workload.Lookup(batch)
	if err != nil {
		return nil, err
	}
	o := options{cfg: core.Default(), spec: sampling.Standard()}
	for _, f := range opts {
		if err := f(&o); err != nil {
			return nil, err
		}
	}
	return &Colocation{ls: lp, batch: bp, opt: o}, nil
}

// Result holds the measured IPC of both hardware threads.
type Result struct {
	// LSIPC and BatchIPC are sampled mean IPCs.
	LSIPC, BatchIPC float64
	// LS and Batch expose the full aggregated metrics.
	LS, Batch sampling.Agg
}

// Measure runs the sampled simulation.
func (c *Colocation) Measure() (Result, error) {
	a0, a1, err := sampling.Colocated(c.opt.cfg, c.ls, c.batch, c.opt.spec)
	if err != nil {
		return Result{}, err
	}
	return Result{LSIPC: a0.IPC, BatchIPC: a1.IPC, LS: a0, Batch: a1}, nil
}

// Solo measures a workload alone on a full core (the normalisation
// baseline used throughout the paper).
func Solo(name string, opts ...Option) (sampling.Agg, error) {
	p, err := workload.Lookup(name)
	if err != nil {
		return sampling.Agg{}, err
	}
	o := options{cfg: core.Solo(), spec: sampling.Standard()}
	for _, f := range opts {
		if err := f(&o); err != nil {
			return sampling.Agg{}, err
		}
	}
	return sampling.Solo(o.cfg, p, o.spec)
}

// Slowdown and Speedup are the normalisations used by every figure.
var (
	Slowdown = colocate.Slowdown
	Speedup  = colocate.Speedup
)

// Controller re-exports the §IV-C software monitor.
type Controller = monitor.Controller

// ControllerConfig re-exports the monitor's settings: its QoS signal and
// tail-latency target. The thresholds, hysteresis and throttle delay are
// the §IV-C tuning every controller runs.
type ControllerConfig = monitor.Config

// NewController builds the CPI2-style Stretch controller for a service
// with the given tail-latency target.
func NewController(targetMs float64) (*Controller, error) {
	return monitor.New(monitor.DefaultConfig(targetMs))
}

// ExperimentScale selects fidelity for RunExperiment.
type ExperimentScale = experiments.Scale

// Experiment scales.
const (
	ScaleQuick = experiments.Quick
	ScaleFull  = experiments.Full
)

// ExperimentTable is a printable experiment result.
type ExperimentTable = experiments.Table

// Experiments lists the available experiment ids in paper order.
func Experiments() []string {
	var ids []string
	for _, n := range experiments.All() {
		ids = append(ids, n.ID)
	}
	return ids
}

// RunExperiment regenerates one paper artifact ("fig9", "table2", ...).
func RunExperiment(id string, scale ExperimentScale) (ExperimentTable, error) {
	n, err := experiments.ByID(id)
	if err != nil {
		return ExperimentTable{}, err
	}
	return n.Run(experiments.NewContext(scale))
}

// --- Fleet layer: synthetic traffic + datacenter-scale simulation ---

// Traffic is a multi-client open-loop traffic specification: per-client
// arrival specs, core-share fractions and SLO classes over a windowed
// horizon.
type Traffic = loadgen.Traffic

// TrafficClient is one traffic source in a multi-client spec.
type TrafficClient = loadgen.Client

// ArrivalSpec couples an arrival shape with the noise model.
type ArrivalSpec = loadgen.Spec

// ArrivalShape produces each window's deterministic mean arrival rate.
type ArrivalShape = loadgen.Shape

// Arrival shapes: flat rate, invitro-style RPS ramp, diurnal day profile,
// and burst injection on top of any base shape.
type (
	Constant = loadgen.Constant
	Ramp     = loadgen.Ramp
	Diurnal  = loadgen.Diurnal
	Burst    = loadgen.Burst
)

// SLOClass scales a service's published QoS target for a traffic client.
type SLOClass = loadgen.SLOClass

// SLO classes.
const (
	SLOStandard = loadgen.SLOStandard
	SLOStrict   = loadgen.SLOStrict
	SLORelaxed  = loadgen.SLORelaxed
)

// WebSearchDay is the §VI-D Web Search diurnal profile (fractions of
// peak), reusable as Diurnal.HourLoad.
func WebSearchDay() [24]float64 { return loadgen.WebSearchDay() }

// VideoDay is the §VI-D YouTube-like diurnal profile (fractions of peak),
// reusable as Diurnal.HourLoad.
func VideoDay() [24]float64 { return loadgen.VideoDay() }

// Scheduler selects the fleet's core-allocation and load-routing policy:
// the static Fraction split, elastic proportional reallocation (with a
// tunable hysteresis, a one-core floor per client and a fixed 0.25
// migration penalty), power-of-two-choices routing, or closed-loop
// feedback reallocation driven by each window's measured tails; it also
// carries the feedback gain and decay the search sweeps.
type Scheduler = fleet.SchedulerConfig

// SchedulerPolicy names a fleet scheduling policy.
type SchedulerPolicy = fleet.Policy

// Scheduler policies.
const (
	// PolicyStatic keeps each client on the cores its Fraction bought.
	PolicyStatic = fleet.PolicyStatic
	// PolicyProportional re-divides in-service cores every window in
	// proportion to each client's current SLO-weighted offered load.
	PolicyProportional = fleet.PolicyProportional
	// PolicyP2C allocates like PolicyProportional but routes each
	// window's load with power-of-two-choices instead of an even split.
	PolicyP2C = fleet.PolicyP2C
	// PolicyFeedback closes the loop: it allocates like
	// PolicyProportional but weights each client's demand by the previous
	// window's measured violations and slack, stealing cores from
	// slack-rich clients for violating ones.
	PolicyFeedback = fleet.PolicyFeedback
)

// ParseSchedulerPolicy resolves a policy name
// (static|proportional|p2c|feedback).
func ParseSchedulerPolicy(s string) (SchedulerPolicy, error) { return fleet.ParsePolicy(s) }

// Autoscale selects the fleet's autoscaling layer: servers join/leave
// the fleet between windows under a scaling policy (built-in or Custom)
// above a MinServers floor, with a warm-up cost — a joining server's
// cores pay the migration penalty for their first active window. Set it
// on FleetConfig.Autoscale; the zero value keeps every server in service.
type Autoscale = fleet.AutoscaleConfig

// AutoscalePolicy names a fleet autoscaling policy.
type AutoscalePolicy = fleet.AutoscalePolicy

// Autoscale policies.
const (
	// AutoscaleOff keeps the fleet size fixed.
	AutoscaleOff = fleet.AutoscaleOff
	// AutoscaleUtil keeps offered load over in-service saturation
	// capacity inside a fixed [0.45, 0.75] utilisation band.
	AutoscaleUtil = fleet.AutoscaleUtil
	// AutoscaleViolation scales out on measured QoS-violation
	// core-windows and in on sustained slack.
	AutoscaleViolation = fleet.AutoscaleViolation
)

// ParseAutoscalePolicy resolves a policy name (off|util|violation).
func ParseAutoscalePolicy(s string) (AutoscalePolicy, error) { return fleet.ParseAutoscalePolicy(s) }

// Autoscaler is the stepped scaling interface: called once per window
// with the previous window's measured observation and the current fleet
// state, it returns how many servers should be in service. Supply a
// custom implementation via Autoscale.Custom.
type Autoscaler = fleet.Autoscaler

// AutoscaleState is the fleet state handed to an Autoscaler each window.
type AutoscaleState = fleet.ScaleState

// TailEstimator selects how the fleet estimates tail-latency quantiles at
// every level (per-request, per-window, per-client, fleet-wide).
type TailEstimator = stats.TailEstimator

// Tail estimators. The fleet default (EstimatorDefault) is the mergeable
// log-bucketed histogram: O(1) per observation and constant memory, with
// quantile error bounded by the bucket resolution (≤ 1/16 ≈ 6.25% per
// quantisation level, half that in expectation). EstimatorExact retains
// every observation and selects each quantile's order statistics — exact,
// but memory grows with request count; use it for small runs and accuracy
// comparisons.
const (
	EstimatorDefault   = stats.EstimatorDefault
	EstimatorExact     = stats.EstimatorExact
	EstimatorHistogram = stats.EstimatorHistogram
)

// ParseTailEstimator resolves an estimator name (exact|histogram).
func ParseTailEstimator(s string) (TailEstimator, error) { return stats.ParseTailEstimator(s) }

// EngineMode selects how the fleet computes per-core window tails: the
// discrete event-level simulator or the auto engine's analytic fast path.
type EngineMode = fleet.Engine

// Engine modes. EngineDiscrete (the default) simulates every core-window
// that has load event by event and answers nothing analytically.
// EngineAuto answers every (core, window) the closed-form solver accepts
// analytically, whatever the controller's mode or history; windows the
// solver refuses (utilization above its ceiling, or a service outside
// its validated envelope) keep full discrete fidelity, which is what
// makes 1M-core × 24h fleet days tractable without giving up event-level
// accuracy where the solver cannot vouch for its answer.
const (
	EngineDiscrete = fleet.EngineDiscrete
	EngineAuto     = fleet.EngineAuto
)

// ParseEngineMode resolves an engine name (discrete|auto).
func ParseEngineMode(s string) (EngineMode, error) { return fleet.ParseEngine(s) }

// FleetWindowObservation is one window's measured fleet record: the
// feedback handed to the closed-loop scheduler after each window barrier,
// and the per-window entry of FleetResult.WindowTrace.
type FleetWindowObservation = fleet.WindowObservation

// FleetClientWindowObs is one client's aggregate within a single window.
type FleetClientWindowObs = fleet.ClientWindowObs

// FleetEvent is one scenario incident: a server drain/restore, a traffic
// surge redirected onto a client, or a server pinned at an older hardware
// generation's performance.
type FleetEvent = loadgen.Event

// FleetEventKind discriminates fleet events.
type FleetEventKind = loadgen.EventKind

// Fleet event kinds.
const (
	EventDrain   = loadgen.EventDrain
	EventRestore = loadgen.EventRestore
	EventSurge   = loadgen.EventSurge
	EventPerf    = loadgen.EventPerf
)

// FleetScenario is an ordered set of fleet events applied to one run.
type FleetScenario = loadgen.Scenario

// ParseFleetEvents parses a comma-separated event list, e.g.
// "drain:24:0,restore:72:0,surge:30-40:video:1.8,perf:3:0.85".
func ParseFleetEvents(s string) (FleetScenario, error) { return loadgen.ParseEvents(s) }

// CalibrationTable maps every calibrated (service, batch) colocation to
// its per-mode performance deltas — LS slowdown and batch speedup relative
// to equal partitioning — derived from the cycle-level core model. Set it
// on FleetConfig.Calibration to make the fleet's B-/Q-mode arithmetic
// pair-specific (the §V observation that Stretch's gains vary widely
// across colocations); leave it nil for the legacy uniform scalars.
type CalibrationTable = calib.Table

// CalibrationInputs pins everything a calibration table is a function of:
// the service × batch grid, the B-/Q-mode skews, and the sampling spec.
// Tables are content-addressed by CalibrationInputs.Fingerprint.
type CalibrationInputs = calib.Inputs

// CalibrationCell is one (service, batch, mode) delta pair.
type CalibrationCell = calib.Cell

// DefaultBatchPairing is the batch workload assumed for a TrafficClient
// whose Batch field is empty.
const DefaultBatchPairing = fleet.DefaultBatchPairing

// DefaultCalibration returns the committed default calibration table: the
// full service × batch catalogue at the headline 56-136 / 136-56 skews,
// pre-built so no cycle-level cost is paid at load time.
func DefaultCalibration() (*CalibrationTable, error) { return calib.Default() }

// DefaultCalibrationInputs returns the inputs the committed default table
// was built from.
func DefaultCalibrationInputs() CalibrationInputs { return calib.DefaultInputs() }

// BuildCalibrationTable runs the cycle-level model over the inputs' grid —
// the expensive path — and returns the per-pair per-mode table.
// Deterministic: the same inputs build the same table at any GOMAXPROCS.
func BuildCalibrationTable(in CalibrationInputs) (*CalibrationTable, error) { return calib.Build(in) }

// LoadCalibrationTable reads and verifies a cached table from disk.
func LoadCalibrationTable(path string) (*CalibrationTable, error) { return calib.Load(path) }

// CachedCalibrationTable returns the table for in, paying cycle-level cost
// at most once per content hash: a cache file whose stored hash matches
// the inputs' fingerprint is loaded; anything else (missing, stale,
// tampered) triggers a rebuild and rewrite.
func CachedCalibrationTable(path string, in CalibrationInputs) (*CalibrationTable, error) {
	return calib.Cached(path, in)
}

// FleetConfig parameterises a datacenter-scale run: fleet size, traffic,
// B-mode deltas (a CalibrationTable or the uniform scalars), request
// budget, worker pool, seed, scheduler policy and scenario events.
type FleetConfig = fleet.Config

// FleetResult aggregates a fleet run: per-client tails and violations,
// fleet-wide tails over every serving core-window (FleetP99Ms,
// FleetP999Ms), engaged-core-hours, and batch core-hours gained over
// equal partitioning.
type FleetResult = fleet.Result

// FleetClientMetrics is one traffic client's aggregate.
type FleetClientMetrics = fleet.ClientMetrics

// Fleet simulates a datacenter of controller-governed SMT cores under the
// configured traffic, sharded across a goroutine worker pool. Identical
// seeds reproduce identical aggregate metrics regardless of worker count.
func Fleet(cfg FleetConfig) (FleetResult, error) { return fleet.Run(cfg) }

// PeakRPSPerCore is the peak sustainable per-core arrival rate of a
// service — the anchor for building traffic in fractions of peak.
func PeakRPSPerCore(service string, nRequests int, seed uint64) (float64, error) {
	return fleet.PeakRPSPerCore(service, nRequests, seed)
}

// CapacitySpec asks for the minimum fleet meeting an SLO budget: a run
// template (whose Servers field is the search ceiling), a search floor,
// and the largest tolerable count of QoS-violating core-windows.
type CapacitySpec = fleet.CapacitySpec

// CapacityPlan is a capacity search result: the minimum fleet meeting the
// budget (when feasible) and every probed size in evaluation order.
type CapacityPlan = fleet.CapacityPlan

// CapacityPoint is one probed fleet size within a capacity search.
type CapacityPoint = fleet.CapacityPoint

// PlanCapacity binary-searches the minimum server count whose
// full-horizon run meets the SLO budget. Drive it from a recorded trace
// (TraceFile.Traffic) so the offered load is independent of the fleet
// size — then the answer is also seed- and worker-count-independent.
func PlanCapacity(spec CapacitySpec) (CapacityPlan, error) { return fleet.PlanCapacity(spec) }

// --- Decision tracing, counterfactuals and policy search ---

// DecisionTraceLevel selects how much of each window's scheduling
// decision a fleet run records into FleetResult.DecisionTrace: off
// (nothing, zero cost — the default), summary (per-client deltas and
// driving signals), or full (plus the per-core assignment snapshot).
type DecisionTraceLevel = fleet.TraceLevel

// Decision-trace levels.
const (
	DecisionTraceOff     = fleet.TraceOff
	DecisionTraceSummary = fleet.TraceSummary
	DecisionTraceFull    = fleet.TraceFull
)

// ParseDecisionTraceLevel resolves a trace-level name (off|summary|full).
func ParseDecisionTraceLevel(s string) (DecisionTraceLevel, error) { return fleet.ParseTraceLevel(s) }

// DecisionRecord is one window's complete scheduling decision: per-client
// allocation deltas with the signals that drove them, rebalance and
// hysteresis-suppression flags, migrations charged, the optional
// counterfactual evaluation, and (at full level) the per-core assignment.
type DecisionRecord = fleet.DecisionRecord

// ClientDecision is one client's slice of a window's decision.
type ClientDecision = fleet.ClientDecision

// DecisionAssignment is the full-level per-core assignment snapshot.
type DecisionAssignment = fleet.AssignmentRecord

// DecisionCounterfactual records a traced window's alternative-assignment
// evaluation: the chosen assignment's cost, the best cost over the chosen
// and all evaluated single-core-move alternatives, and the regret of the
// chosen assignment (≥ 0 by construction).
type DecisionCounterfactual = fleet.Counterfactual

// DecisionAlternative is one evaluated alternative assignment.
type DecisionAlternative = fleet.CounterfactualAlt

// FitnessWeights weighs the four fleet objectives — violation
// core-windows, batch core-hours gained, migration core-windows and Jain
// fairness — into the scalar fitness the policy search ranks by.
type FitnessWeights = fleet.FitnessWeights

// DefaultFitnessWeights is the hand-picked objective trade.
func DefaultFitnessWeights() FitnessWeights { return fleet.DefaultFitnessWeights() }

// ParseFitnessWeights resolves a weight spec like "viol=1,batch=0.5";
// unspecified keys keep their defaults.
func ParseFitnessWeights(s string) (FitnessWeights, error) { return fleet.ParseFitnessWeights(s) }

// SearchOutcome is one candidate scheduler's evaluation over a suite.
type SearchOutcome = fleet.SearchOutcome

// SearchGrid is the default scheduler-candidate grid: every policy at its
// defaults plus a sweep of the feedback gains; the hand-tuned feedback
// configuration is always a member.
func SearchGrid() []Scheduler { return fleet.SearchGrid() }

// SearchSchedulers evaluates every candidate over every suite config and
// returns the outcomes ranked by fitness, best first.
func SearchSchedulers(suite []FleetConfig, cands []Scheduler, w FitnessWeights) ([]SearchOutcome, error) {
	return fleet.SearchSchedulers(suite, cands, w)
}

// JainFairness is the Jain fairness index of xs: (Σx)²/(n·Σx²) — 1 when
// all equal and positive, approaching 1/n when one value dominates.
func JainFairness(xs []float64) float64 { return stats.Jain(xs) }

// --- Trace layer: recorded-traffic ingestion, synthesis and replay ---

// ArrivalProcess selects the window-population noise model layered on an
// ArrivalSpec's deterministic shape: exact rates, Poisson sampling, or an
// overdispersed Gamma-/Weibull-mixed Poisson whose CV knob captures the
// burstiness recorded production traces show and plain Poisson misses.
type ArrivalProcess = loadgen.Arrival

// Arrival processes. ArrivalDefault defers to the legacy ArrivalSpec
// Poisson flag.
const (
	ArrivalDefault = loadgen.ArrivalDefault
	ArrivalExact   = loadgen.ArrivalExact
	ArrivalPoisson = loadgen.ArrivalPoisson
	ArrivalGamma   = loadgen.ArrivalGamma
	ArrivalWeibull = loadgen.ArrivalWeibull
)

// ParseArrivalProcess resolves an arrival-process string:
// "exact", "poisson", "gamma:<cv>" or "weibull:<cv>". The CV result is
// the mixture's coefficient of variation (zero for the first two).
func ParseArrivalProcess(s string) (ArrivalProcess, float64, error) { return loadgen.ParseArrival(s) }

// ParseSLOClass resolves an SLO class name (standard|strict|relaxed).
func ParseSLOClass(s string) (SLOClass, error) { return loadgen.ParseSLOClass(s) }

// ReplayShape plays back a recorded per-window rate sequence verbatim —
// the shape a loaded TraceFile turns into. ScaleShape and ShiftShape wrap
// any base shape with a rate multiplier or a circular window offset; the
// cohort expander composes them to stagger and weight cohort members.
type (
	ReplayShape = loadgen.Replay
	ScaleShape  = loadgen.Scale
	ShiftShape  = loadgen.Shift
)

// CohortSpec expands one logical traffic client into a population of
// members with Zipf-skewed rate shares and phase-staggered shapes
// (ServeGen-style client realism).
type CohortSpec = loadgen.CohortSpec

// ExpandCohort splits a client into spec.Members cohort clients; shares
// are normalised Zipf weights, so expansion is deterministic and
// rate-preserving.
func ExpandCohort(c TrafficClient, spec CohortSpec) ([]TrafficClient, error) {
	return loadgen.ExpandCohort(c, spec)
}

// TraceFile is a parsed (or synthesised) traffic recording: a windowed
// horizon, per-client metadata, optional embedded scenario events, and
// the complete per-window rate matrix. Its Traffic method converts it
// into the fleet's traffic source; replay is seed-independent for the
// timelines (the rates are already a realisation) while the simulation's
// per-core streams stay seed-derived as usual.
type TraceFile = tracefile.Trace

// TraceClient is the per-client metadata a TraceFile carries.
type TraceClient = tracefile.Client

// TraceSynthSpec drives SynthTrace: the generative Traffic, scenario
// events to embed, and the realisation seed.
type TraceSynthSpec = tracefile.SynthSpec

// LoadTrace reads and strictly validates a trace file (CSV or JSONL,
// auto-detected) with line-numbered errors.
func LoadTrace(path string) (*TraceFile, error) { return tracefile.Load(path) }

// ParseTrace parses a trace from a reader; see LoadTrace.
var ParseTrace = tracefile.Parse

// SynthTrace materialises a generative traffic spec into a TraceFile
// through the same seed-derived streams the fleet uses: replaying the
// result under a fleet with the same seed is bit-identical to simulating
// the spec directly.
func SynthTrace(spec TraceSynthSpec) (*TraceFile, error) { return tracefile.Synth(spec) }
