package fleet

import (
	"fmt"
	"math"

	"stretch/internal/calib"
	"stretch/internal/loadgen"
	"stretch/internal/queueing"
	"stretch/internal/stats"
	"stretch/internal/workload"
)

// Config parameterises a fleet run.
type Config struct {
	// Servers and CoresPerServer size the fleet (Servers × CoresPerServer
	// SMT cores total).
	Servers, CoresPerServer int

	// Traffic is the multi-client arrival spec; each client's fleet-wide
	// timeline is split evenly across the cores its Fraction buys.
	Traffic loadgen.Traffic

	// Calibration supplies per-(service, batch, mode) performance deltas
	// derived from the cycle-level core model: each client's B-/Q-mode LS
	// slowdown and batch credit come from its (Service, Batch) pair's
	// calibrated cells instead of the uniform scalars below. The table
	// must cover every client's pairing (empty Client.Batch resolves to
	// DefaultBatchPairing). Nil applies the uniform scalars below to
	// every client.
	Calibration *calib.Table

	// BatchSpeedupB and LSSlowdownB are the uniform measured B-mode deltas
	// versus equal partitioning (e.g. from the 56-136 skew grid), applied
	// to every client alike; Q-mode costs every client qModeBatchCost.
	// Ignored when Calibration is set.
	BatchSpeedupB, LSSlowdownB float64

	// WindowRequests is the per-core request budget sampling each window's
	// steady state (default 800 when zero).
	WindowRequests int

	// Workers caps the residue goroutines per window (default GOMAXPROCS
	// when zero).
	// Results are independent of the worker count.
	Workers int

	// Seed is the experiment seed; identical seeds reproduce identical
	// aggregate metrics.
	Seed uint64

	// TailEstimator selects how tail quantiles are estimated, at every
	// level: per-request latencies inside each core-window simulation,
	// per-client window tails at the barrier, and the per-client and
	// fleet-wide aggregates; stats.NewTail builds every store.
	// stats.EstimatorHistogram (the default — stats.EstimatorDefault
	// resolves to it here) records into fixed log-bucketed histograms:
	// O(1) per observation, memory independent of the request count,
	// quantile error bounded by the bucket resolution.
	// stats.EstimatorExact retains every observation and selects per query
	// — exact, but memory and tail-query cost grow linearly with requests;
	// use it for small runs and accuracy comparisons. Either way results
	// are bit-identical across worker counts for identical seeds.
	TailEstimator stats.TailEstimator

	// Engine selects how per-core window tails are computed: the discrete
	// event-level simulator (the zero value, which simulates every
	// core-window that has load) or auto, which answers every window the
	// analytic solver accepts in closed form and simulates the rest. See
	// engine.go.
	Engine Engine

	// Scheduler selects the core-allocation and load-routing policy; the
	// zero value is the static Fraction split.
	Scheduler SchedulerConfig

	// DecisionTrace records every window's scheduling decision into
	// Result.DecisionTrace (decision.go): TraceOff (the zero value)
	// records nothing and costs nothing, TraceSummary captures per-client
	// deltas and driving signals, TraceFull additionally snapshots the
	// per-core assignment.
	DecisionTrace TraceLevel

	// CounterfactualK, when positive, evaluates up to K alternative
	// single-core-move assignments at every traced window and records the
	// chosen assignment's regret in each DecisionRecord. Requires
	// DecisionTrace to be on.
	CounterfactualK int

	// Autoscale lets servers join/leave the fleet between windows under a
	// scaling policy (autoscale.go); Servers becomes the physical ceiling
	// of a fleet that parks and unparks whole servers. The zero value
	// keeps every server in service: the fleet size is fixed.
	Autoscale AutoscaleConfig

	// Scenario injects fleet events — server drains/restores, traffic
	// surges, per-server performance generations. The zero value is an
	// uneventful run.
	Scenario loadgen.Scenario
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.Servers <= 0 || c.CoresPerServer <= 0 {
		return fmt.Errorf("fleet: need a positive fleet size (%d servers × %d cores)", c.Servers, c.CoresPerServer)
	}
	// Plans store client indices as int16, with negative sentinels for
	// idle, drained and parked cores; a wider index would wrap into them.
	if n := len(c.Traffic.Clients); n > math.MaxInt16 {
		return fmt.Errorf("fleet: %d clients exceed the limit of %d", n, math.MaxInt16)
	}
	if err := c.Traffic.Validate(); err != nil {
		return err
	}
	if len(c.Traffic.Clients) > c.Servers*c.CoresPerServer {
		return fmt.Errorf("fleet: %d clients need at least as many cores (have %d)",
			len(c.Traffic.Clients), c.Servers*c.CoresPerServer)
	}
	// The uniform deltas are checked in the NaN-rejecting form; an infinite
	// speedup would make the batch gain, and so the Result, infinite.
	if !(0 <= c.BatchSpeedupB && c.BatchSpeedupB < math.Inf(1)) {
		return fmt.Errorf("fleet: B-mode batch speedup %v not finite and non-negative", c.BatchSpeedupB)
	}
	if !(0 <= c.LSSlowdownB && c.LSSlowdownB < 1) {
		return fmt.Errorf("fleet: B-mode LS slowdown %v out of [0,1)", c.LSSlowdownB)
	}
	if c.WindowRequests < 0 {
		return fmt.Errorf("fleet: negative window request budget")
	}
	if err := c.TailEstimator.Validate(); err != nil {
		return err
	}
	if err := c.Engine.Validate(); err != nil {
		return err
	}
	batches := workload.BatchProfiles()
	for _, cl := range c.Traffic.Clients {
		if _, ok := workload.Services()[cl.Service]; !ok {
			return fmt.Errorf("fleet: client %q: unknown service %q", cl.Name, cl.Service)
		}
		if cl.Batch != "" {
			if _, ok := batches[cl.Batch]; !ok {
				return fmt.Errorf("fleet: client %q: unknown batch pairing %q", cl.Name, cl.Batch)
			}
		}
		if c.Calibration != nil {
			b := BatchPairing(cl)
			p, ok := c.Calibration.Pair(cl.Service, b)
			if !ok {
				return fmt.Errorf("fleet: client %q: calibration table %.12s… has no %s × %s cell",
					cl.Name, c.Calibration.Hash, cl.Service, b)
			}
			for _, cell := range []calib.Cell{p.B, p.Q} {
				if !(cell.LSSlowdown < 1) || !(1-cell.LSSlowdown <= queueing.MaxPerfFactor) {
					return fmt.Errorf("fleet: client %q: calibrated LS slowdown %v for %s × %s out of range",
						cl.Name, cell.LSSlowdown, cl.Service, b)
				}
				if !(cell.BatchSpeedup > -1) {
					return fmt.Errorf("fleet: client %q: calibrated batch speedup %v for %s × %s out of range",
						cl.Name, cell.BatchSpeedup, cl.Service, b)
				}
			}
		}
	}
	if err := c.Scheduler.Validate(); err != nil {
		return err
	}
	if err := c.DecisionTrace.Validate(); err != nil {
		return err
	}
	if c.CounterfactualK < 0 {
		return fmt.Errorf("fleet: negative counterfactual k")
	}
	if c.CounterfactualK > 0 && c.DecisionTrace == TraceOff {
		return fmt.Errorf("fleet: counterfactual evaluation requires a decision-trace level")
	}
	if err := c.Autoscale.Validate(c.Servers); err != nil {
		return err
	}
	return c.Scenario.Validate(c.Traffic.Windows, c.Servers, c.Traffic.Clients)
}

// qModeBatchCost is the uniform batch throughput lost while Q-mode is
// engaged, for runs without a calibration table.
const qModeBatchCost = 0.15

// DefaultBatchPairing is the batch workload assumed to colocate with a
// client whose Batch field is empty: the paper's high-MLP exemplar
// (Figs. 6-7), which is also the pairing the legacy uniform scalars were
// historically measured on.
const DefaultBatchPairing = workload.Zeusmp

// BatchPairing resolves a client's colocated batch workload: its Batch
// field, or DefaultBatchPairing when empty. This is the single owner of
// the empty-Batch rule; callers building calibration inputs for a traffic
// spec (e.g. the CLI cache path) must use it rather than re-deriving it.
func BatchPairing(cl loadgen.Client) string {
	if cl.Batch != "" {
		return cl.Batch
	}
	return DefaultBatchPairing
}

// PeakRPSPerCore returns the peak sustainable per-core arrival rate for the
// named service — the rate anchor for building traffic specs in fractions
// of peak (load 1.0 ≈ the paper's "peak sustainable load").
func PeakRPSPerCore(service string, nRequests int, seed uint64) (float64, error) {
	svc, ok := workload.Services()[service]
	if !ok {
		return 0, fmt.Errorf("fleet: unknown service %q", service)
	}
	return queueing.PeakLoad(queueing.ForService(svc), nRequests, seed)
}
