// Cohort-coalesced window execution: the engine's one execution path,
// under every engine selection.
//
// In a homogeneous fleet almost every in-service core is bit-identical to
// its neighbours: same client, same perf generation, same settled mode,
// same per-core rate. Paying per-core cost for each of them — a
// work-claim, a solve-cache probe, a histogram Add, a controller Observe —
// a million times per window is wasted work. This path exploits the
// redundancy instead: each window is walked once, in core order, as
// run-length spans of the plan keyed by (client, rate, perf bits,
// migrated, last mode, controller value). A span whose classification is
// steady is answered once — one analytic solve, one AddN deposit of the
// span's whole count into each tail store, a bulk fill of the window
// slices, and one controller Observe copied to every member. Under the
// discrete engine classification is off: only zero-rate spans coalesce,
// and every other core-window is discrete residue.
//
// Each core owns its controller, as each SMT core owns its §IV-C monitor
// in the paper. monitor.Controller is a deterministic all-scalar function
// of its observation stream, so the span key can compare controller values
// with ==: a coalesced span observes one copy of the shared value and
// writes the result back into every member's slot. Merging adjacent cores
// whose histories differ but whose controllers collide cannot change an
// answer, because every member's tail, controller step, deposit and
// counters are pure functions of the key.
//
// Discrete-residue cores keep their per-core (seed, core, window) rng
// streams untouched and run one core at a time on residue workers, one
// goroutine per Simulator started for the window and joined at its
// barrier, so the determinism contract — byte-identical goldens,
// DeepEqual across worker counts — holds exactly. The per-core reference
// engine this path replaced committed a digest of every equivalence cell
// (testdata/equivalence_digests.golden); cohort_test.go holds the walk to
// those digests.
package fleet

import (
	"stretch/internal/monitor"
	"stretch/internal/queueing"
)

// claimChunk is the number of work units a residue worker claims per
// atomic increment. One atomic per core made the claim counter the
// hottest cache line in a million-core window; block claims amortise it
// 128×, and the chunk is small enough that the tail imbalance (≤ chunk per
// worker) is noise at every fleet size the benches run.
const claimChunk = 128

// workItem is one discrete-residue core-window handed to the residue
// workers: the core keeps its own derived seed and observes into its own
// controller.
type workItem struct {
	core       int32
	client     int16
	rate, perf float64
}

// initCohorts wires the cohort walk's per-core state: no core holds a
// controller yet, and the worklist holds at most one item per core. fresh
// holds one reset controller per client, built here so a bad target fails
// before the first window.
func (e *engine) initCohorts() error {
	e.ctl = make([]monitor.Controller, e.nCores)
	e.ctlClient = make([]int16, e.nCores)
	e.lastMode = make([]int8, e.nCores)
	for c := range e.ctlClient {
		e.ctlClient[c] = -1
	}
	e.fresh = make([]monitor.Controller, len(e.qcfgs))
	for ci, q := range e.qcfgs {
		if err := e.fresh[ci].Reset(monitor.DefaultConfig(q.QoSTargetMs)); err != nil {
			return err
		}
	}
	e.worklist = make([]workItem, 0, e.nCores)
	return nil
}

// release banks core c's switch count and leaves it without a controller.
func (e *engine) release(c int) {
	if e.ctlClient[c] >= 0 {
		e.switches += e.ctl[c].Switches()
		e.ctlClient[c] = -1
	}
}

// walkWindow is phase one of a window: a single serial walk over the plan
// that answers every coalescible span in closed form and queues the
// discrete residue for the residue workers. Serial is deliberate — the
// walk owns the solve cache and the tail stores, and it is O(spans +
// cores·(slice fills)) with no simulation inside, so it is never the
// bottleneck; the expensive residue runs on the workers in phase two.
func (e *engine) walkWindow(asg Assignment) {
	e.worklist = e.worklist[:0]
	e.analyticCW, e.cohortCW = 0, 0

	spanStart := -1
	var spanCi int16
	var spanRate, spanPerf float64
	var spanMig bool
	flush := func(end int) {
		if spanStart >= 0 {
			e.subRun(spanStart, end, spanCi, spanRate, spanPerf, spanMig)
			spanStart = -1
		}
	}

	// Server by server: a server's cores share its generation perf factor.
	c := 0
	for _, perf := range e.serverPerf {
		for end := c + e.cfg.CoresPerServer; c < end; c++ {
			ci := asg.Client[c]
			if ci < 0 {
				// An idle core runs batch exactly as the equal-partitioning
				// baseline would (no gain); drained and parked cores run
				// nothing. None of them is recorded, and each returns as a
				// cold start.
				flush(c)
				e.release(c)
				continue
			}
			if e.ctlClient[c] != ci {
				// Handover (or return from a sentinel state): cold start
				// with a freshly reset controller.
				e.release(c)
				e.ctl[c], e.ctlClient[c], e.lastMode[c] = e.fresh[ci], ci, -1
			}
			rate, mig := asg.Rate[c], asg.Migrated[c]
			if spanStart >= 0 && (ci != spanCi || rate != spanRate || perf != spanPerf || mig != spanMig ||
				e.lastMode[c] != e.lastMode[spanStart] || e.ctl[c] != e.ctl[spanStart]) {
				flush(c)
			}
			if spanStart < 0 {
				spanStart, spanCi = c, ci
				spanRate, spanPerf, spanMig = rate, perf, mig
			}
		}
	}
	flush(e.nCores)
}

// subRun executes one maximal run of cores sharing (client, rate, perf,
// migrated, last mode, controller value) — the cohort key. The mode,
// effective perf factor (scaled by the server's generation, the engaged
// mode's calibrated LS delta and any migration penalty) and steadiness
// classification are computed once for the whole run: identical inputs
// would give every member core the identical answer. The run's size is
// added to the window's analytic and cohort counters and to the batch
// count of its mode, whose credit it earns (a migrated core runs on a
// freshly reset controller, so its mode is Baseline), and every member's
// last mode becomes this window's mode.
func (e *engine) subRun(a, b int, ci int16, rate, rawPerf float64, mig bool) {
	m := int32(b - a)
	mode := e.ctl[a].Mode()
	perf := rawPerf
	if s := e.lsSlowMode[ci][mode]; s != 0 {
		perf *= 1 - s
	}
	if mig {
		perf *= 1 - migrationPenalty
	}
	e.batchCW[ci][mode] += int64(m)
	lm := int8(mode)
	settled := e.lastMode[a] == lm
	for c := a; c < b; c++ {
		e.lastMode[c] = lm
	}

	// The steadiness classifier: auto takes the analytic path on a span
	// whose mode is settled (a migrated core starts on a fresh controller,
	// so it never is) and which the solver accepts (steadyTail, never
	// under the discrete engine). Anything else — a solver refusal, for a
	// structural cap or a utilization above the ceiling — drops the whole
	// span to the discrete residue; tail is read only when the span
	// coalesces.
	//
	// An idle window — a Poisson draw of zero arrivals, or a window the
	// scheduler routed no load to — skips the queueing simulation under
	// every engine and reads as zero tail: maximal slack. This is
	// deliberate: a core with nothing to serve cannot violate its target,
	// its controller sees the deepest possible headroom (driving it toward
	// B-mode), and the zero is recorded like any other tail under both
	// estimators — it lands in the exact samples and in the histogram's
	// bottom bucket alike, so idle windows pull the measured quantiles down
	// rather than being silently dropped.
	tail, analytic := 0.0, false
	if rate > 0 && settled {
		tail, analytic = e.steadyTail(ci, rate, perf)
	}
	if analytic {
		e.analyticCW += int(m)
	}
	if analytic || rate == 0 {
		e.cohortCW += int(m)
		// Answer the whole cohort at once: every member observes the same
		// tail from the same controller value, so one Observe serves all.
		next := e.ctl[a]
		next.Observe(monitor.Observation{TailMs: tail})
		for c := a; c < b; c++ {
			e.tails[c] = tail
			e.ctl[c] = next
		}
		e.deposit(ci, tail, m)
		return
	}

	// Discrete residue: each member diverges through its own rng stream
	// and observes into its own controller on a residue worker.
	for c := a; c < b; c++ {
		e.worklist = append(e.worklist, workItem{core: int32(c), client: ci, rate: rate, perf: perf})
	}
}

// runWorkItem is phase two's unit of work: one discrete-residue
// core-window, simulated through the worker's reusable Simulator on the
// core's own (seed, core, window)-derived stream, its tail written to the
// core's slot and observed by the core's own controller (runWindow
// deposits it after the workers join). Items touch disjoint cores, so the
// workers need no locking beyond the claim counter.
func (e *engine) runWorkItem(it workItem, w int, sim *queueing.Simulator) error {
	c := int(it.core)
	seed := e.root.Derive(uint64(c)).Derive(uint64(w)).Uint64()
	if err := sim.Reset(e.qcfgs[it.client]); err != nil {
		return err
	}
	tail, err := sim.QoS(it.rate, e.windowReq, it.perf, seed)
	if err != nil {
		return err
	}
	e.tails[c] = tail
	e.ctl[c].Observe(monitor.Observation{TailMs: tail})
	return nil
}
