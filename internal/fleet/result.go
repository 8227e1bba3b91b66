package fleet

import (
	"stretch/internal/loadgen"
	"stretch/internal/stats"
)

// ClientMetrics aggregates one traffic client's cores.
type ClientMetrics struct {
	Client  string
	Service string
	// Batch is the client's resolved colocated batch workload.
	Batch string
	SLO   loadgen.SLOClass
	// Cores is the client's window-0 allocation; under the elastic
	// policies the per-window allocation drifts with demand, tracked by
	// CoreWindows.
	Cores int
	// TargetMs is the SLO-scaled tail target its controllers enforce.
	TargetMs float64
	// P99Ms and P999Ms are quantiles over all core-window tail readings.
	// A client whose elastic allocation reached zero core-windows has no
	// readings and reports zeros (never NaN).
	P99Ms, P999Ms float64
	// ViolationWindows counts core-windows whose tail exceeded the target.
	ViolationWindows int
	// CoreWindows is the total core-windows that served this client.
	CoreWindows int
	// EngagedCoreHours is the B-mode time integrated over the client's
	// cores.
	EngagedCoreHours float64
	// BatchCoreHoursGained integrates (batchRel − 1) over the client's
	// serving core-windows: the extra batch work this client's cores
	// produced versus equal partitioning, in the client's own calibrated
	// speedup units (or the uniform scalars when no table is set). The
	// per-client values, summed in traffic order, are exactly
	// Result.BatchCoreHoursGained.
	BatchCoreHoursGained float64
}

// ClientWindowObs aggregates one client's serving cores within a single
// completed window.
type ClientWindowObs struct {
	// Cores is how many cores served the client this window.
	Cores int
	// OfferedRPS is the total arrival rate routed to the client.
	OfferedRPS float64
	// MeanTailMs, MaxTailMs and TailP99Ms summarise the client's per-core
	// window tails.
	MeanTailMs, MaxTailMs, TailP99Ms float64
	// MeanSlack is the mean headroom below the tail target reported by the
	// client's per-core monitors, as a fraction of the target (negative
	// means violating).
	MeanSlack float64
	// Violations counts the client's violating core-windows this window.
	Violations int
	// BCores counts the client's cores that ran the window in B-mode.
	BCores int
	// BatchRel is the mean batch throughput of the client's serving cores
	// this window, relative to equal partitioning — in the client's
	// calibrated speedup units when the run is calibrated. 1 means the
	// equal-partitioning baseline; >1 means B-mode credit is flowing.
	BatchRel float64
}

// WindowObservation is the measured record of one completed window: the
// feedback the engine hands the scheduler's Step at the next window, and
// the per-window entry of Result.WindowTrace.
type WindowObservation struct {
	// Window is the window index.
	Window int
	// Clients holds per-client window aggregates in traffic order.
	Clients []ClientWindowObs
	// ServingCores, DrainedCores, ParkedCores and IdleCores partition the
	// fleet: serving a client, scenario-drained, autoscaler-parked, or in
	// service but unassigned.
	ServingCores, DrainedCores, ParkedCores, IdleCores int
	// Violations counts the window's violating core-windows fleet-wide.
	Violations int
	// BCores counts cores that ran the window in B-mode.
	BCores int
	// Migrations counts cores that paid the migration penalty.
	Migrations int
	// AnalyticCores counts cores whose window was answered by the
	// analytic fast path (always zero under the discrete engine).
	AnalyticCores int
	// CohortCores counts cores whose window the cohort walk answers
	// without per-core work — analytically solved or zero-rate windows.
	// Always zero under the discrete engine, whose zero-rate windows
	// coalesce too but are not counted, so discrete Results stay equal to
	// those of the per-core engine the walk replaced.
	CohortCores int
}

// Result is the fleet-wide aggregation.
type Result struct {
	// Cores and Windows echo the simulated extent.
	Cores, Windows int
	WindowSec      float64

	// Policy echoes the scheduler policy the run used.
	Policy Policy
	// Autoscale echoes the autoscaling policy the run used.
	Autoscale AutoscalePolicy
	// TailEstimator echoes the resolved tail estimator the run used.
	TailEstimator stats.TailEstimator
	// Engine echoes the engine the run used; AnalyticCoreWindows counts
	// the core-windows it answered analytically (zero under discrete —
	// and the fraction of the horizon the analytic fast path absorbed
	// otherwise, which is what the speedup is proportional to).
	Engine              Engine
	AnalyticCoreWindows int
	// AnalyticSolves counts distinct successful analytic solves — first
	// insertions into the run's solve cache. The gap between
	// AnalyticCoreWindows and AnalyticSolves is the work the solve cache
	// (and, per window, the cohort coalescing) absorbed. Every solve runs
	// in walk order on the engine goroutine, so the count is deterministic
	// across worker counts; re-solving a key the cache has evicted
	// recounts it.
	AnalyticSolves int
	// CohortCoreWindows sums WindowObservation.CohortCores over the
	// horizon: core-windows the cohort walk answers without per-core
	// simulation (zero under the discrete engine; see
	// WindowObservation.CohortCores).
	CohortCoreWindows int
	// CalibrationHash is the content hash of the calibration table the run
	// used; empty means the uniform-scalar fallback.
	CalibrationHash string

	// Clients holds per-client aggregates in traffic order.
	Clients []ClientMetrics

	// FleetP99Ms and FleetP999Ms are fleet-wide quantiles over every
	// serving core-window tail, across all clients — the datacenter-level
	// tail report that per-client metrics cannot express.
	FleetP99Ms, FleetP999Ms float64

	// TotalCoreHours is Cores × horizon.
	TotalCoreHours float64
	// EngagedCoreHours is the fleet-wide B-mode time.
	EngagedCoreHours float64
	// BatchCoreHoursGained integrates (batchRel − 1) over every serving
	// core-window: the extra batch work versus the same schedule run under
	// equal partitioning, in core-hours. Idle and drained core-windows
	// contribute nothing to either side. It is the sum, in traffic order,
	// of the per-client ClientMetrics.BatchCoreHoursGained.
	BatchCoreHoursGained float64
	// BatchGain is BatchCoreHoursGained normalised by TotalCoreHours: the
	// fleet-wide batch throughput improvement over equal partitioning.
	BatchGain float64
	// ViolationWindows counts QoS-violating core-windows fleet-wide.
	ViolationWindows int
	// Switches sums all controllers' mode changes.
	Switches uint64

	// Migrations counts core-windows that paid the migration penalty
	// (core handed to a different client than the previous window).
	Migrations int
	// DrainedCoreWindows, ParkedCoreWindows and IdleCoreWindows count
	// scenario-drained, autoscaler-parked and unassigned core-windows in
	// the schedule.
	DrainedCoreWindows int
	ParkedCoreWindows  int
	IdleCoreWindows    int

	// FairnessIndex is the Jain fairness index over per-client SLO
	// fulfilment — each client's non-violating fraction of its serving
	// core-windows (zero for a client squeezed to none) — 1 when every
	// client is equally well served, approaching 1/n when one client
	// absorbs all the violations.
	FairnessIndex float64

	// WindowTrace is the per-window fleet series: one measured observation
	// per window, in order — the same records the closed-loop scheduler
	// consumed online.
	WindowTrace []WindowObservation

	// DecisionTrace holds one DecisionRecord per window when
	// Config.DecisionTrace is on (nil otherwise): the scheduler-side
	// account of the same horizon WindowTrace measures.
	DecisionTrace []DecisionRecord
}
