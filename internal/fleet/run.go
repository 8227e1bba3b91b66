package fleet

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"stretch/internal/core"
	"stretch/internal/queueing"
	"stretch/internal/rng"
	"stretch/internal/stats"
	"stretch/internal/workload"
)

// Run simulates the fleet over the traffic horizon: build the engine, step
// it one window at a time, and aggregate.
func Run(cfg Config) (Result, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return Result{}, err
	}
	defer e.close()
	for w := 0; w < e.windows; w++ {
		if err := e.runWindow(w); err != nil {
			return Result{}, err
		}
	}
	return e.aggregate(), nil
}

// newEngine validates cfg and resolves everything a run holds constant:
// per-client service configs and performance deltas, the scheduler, the
// per-server perf factors, the rng root, the solver envelope, the tail
// stores, and the worker pool. Callers must close the engine.
func newEngine(cfg Config) (*engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nCores := cfg.Servers * cfg.CoresPerServer
	windows := cfg.Traffic.Windows
	windowReq := cfg.WindowRequests
	if windowReq == 0 {
		windowReq = 800
	}
	est := cfg.TailEstimator
	if est == stats.EstimatorDefault {
		est = stats.EstimatorHistogram
	}
	timelines, err := cfg.Traffic.Timelines(cfg.Seed)
	if err != nil {
		return nil, err
	}

	// Per-client service configs, SLO-scaled targets and per-mode
	// performance deltas. With a calibration table each client gets its
	// own (service, batch) pair's cycle-level-derived cells; without one,
	// every client shares the uniform scalars (and reproduces the
	// pre-calibration arithmetic bit-for-bit).
	n := len(cfg.Traffic.Clients)
	qcfgs := make([]queueing.Config, n)
	lsSlowMode := make([][3]float64, n)
	batchRelMode := make([][3]float64, n)
	for ci, cl := range cfg.Traffic.Clients {
		qcfgs[ci] = queueing.ForService(workload.Services()[cl.Service])
		qcfgs[ci].QoSTargetMs *= cl.SLO.Scale()
		qcfgs[ci].Estimator = est
		if cfg.Calibration != nil {
			b := BatchPairing(cl)
			pb, _ := cfg.Calibration.Lookup(cl.Service, b, core.ModeB)
			pq, _ := cfg.Calibration.Lookup(cl.Service, b, core.ModeQ)
			lsSlowMode[ci] = [3]float64{0, pb.LSSlowdown, pq.LSSlowdown}
			batchRelMode[ci] = [3]float64{1, 1 + pb.BatchSpeedup, 1 + pq.BatchSpeedup}
		} else {
			lsSlowMode[ci] = [3]float64{0, cfg.LSSlowdownB, 0}
			batchRelMode[ci] = [3]float64{1, 1 + cfg.BatchSpeedupB, 1 - qModeBatchCost}
		}
	}

	st, err := newScheduler(cfg, timelines)
	if err != nil {
		return nil, err
	}

	// Each core-window's simulation seed derives from the experiment seed,
	// the core's global index and the window (runWorkItem), so neither the
	// schedule nor the worker count can perturb results.
	e := &engine{
		cfg: cfg, est: est, st: st,
		nCores: nCores, windows: windows, windowReq: windowReq,
		engineSel:    cfg.Engine,
		lsSlowMode:   lsSlowMode,
		batchRelMode: batchRelMode,
		qcfgs:        qcfgs,
		serverPerf:   cfg.Scenario.PerfFactors(cfg.Servers),
		root:         rng.New(cfg.Seed).Derive(0xF1EE7),
		tails:        make([]float64, nCores),
		batchCW:      make([][3]int64, n),
	}
	if err := e.initCohorts(); err != nil {
		return nil, err
	}
	// steadyTail's solver envelope (analyticOK stays all false under the
	// discrete engine): per-client utilization coefficients and structural
	// feasibility, probed once at a comfortably steady utilization (the
	// refusals that matter here are rate-independent caps).
	e.analyticOK = make([]bool, n)
	if cfg.Engine != EngineDiscrete {
		e.solveCache = queueing.NewTailCache(analyticCacheLimit)
		e.utilCoef = make([]float64, n)
		for ci := range cfg.Traffic.Clients {
			e.utilCoef[ci] = queueing.Utilization(qcfgs[ci], 1, 1)
			if e.utilCoef[ci] > 0 && !math.IsInf(e.utilCoef[ci], 0) {
				_, err := queueing.Analytic(qcfgs[ci], 0.1/e.utilCoef[ci], 1)
				e.analyticOK[ci] = err == nil
			}
		}
	}

	if cfg.CounterfactualK > 0 {
		e.initCounterfactual(cfg.CounterfactualK, cfg.Seed)
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nCores {
		workers = nCores
	}
	// One reusable Simulator per worker: the queueing heaps and sample
	// buffers live across the whole horizon. Analytic solves under the
	// auto engine stay on the engine goroutine (the cache wired above).
	e.sims = make([]*queueing.Simulator, workers)
	for i := range e.sims {
		e.sims[i] = new(queueing.Simulator)
	}
	e.errs = make([]coreErr, workers)
	// Exact run stores are sized for the static split; an elastic client
	// that outgrows it appends. The histogram ignores the hints.
	e.winTails = make([]stats.Tail, n)
	e.runTails = make([]stats.Tail, n)
	for ci, k := range assignCores(cfg.Traffic.Clients, nCores) {
		e.winTails[ci] = stats.NewTail(est, nCores)
		e.runTails[ci] = stats.NewTail(est, k*windows)
	}
	e.fleetTail = stats.NewTail(est, nCores*windows)

	e.winTrace = make([]WindowObservation, 0, windows)
	if cfg.DecisionTrace != TraceOff {
		e.decTrace = make([]DecisionRecord, 0, windows)
	}

	// One persistent pool for the whole horizon — the former per-window
	// spawn loop burned workers × windows goroutine creations per run.
	e.pool = newWorkerPool(workers)
	return e, nil
}

// close stops the engine's worker pool.
func (e *engine) close() { e.pool.close() }

// runWindow advances the fleet through window w: the scheduler's Step on
// the previous window's observation, the decision record, the cohort walk,
// the pool over the discrete residue, and the barrier's observation.
func (e *engine) runWindow(w int) error {
	var obs *WindowObservation
	if w > 0 {
		obs = &e.winTrace[w-1]
	}
	asg := e.st.Step(w, obs)
	if e.st.trace != TraceOff {
		// Capture (and counterfactually evaluate) the decision before
		// the worker pool runs: the record and the evaluator live on
		// the engine goroutine only, so the trace — like every other
		// aggregate — cannot depend on the worker count.
		rec := e.st.dec
		if e.cfK > 0 {
			if err := e.counterfactual(w, rec); err != nil {
				return err
			}
		}
		e.decTrace = append(e.decTrace, *rec)
	}

	// Simulate the window, then barrier before observing. The cohort
	// walk answers coalescible spans serially and hands only the
	// discrete residue to the pool, which claims it in blocks of
	// claimChunk instead of one atomic per item.
	e.walkWindow(asg)
	if work := len(e.worklist); work > 0 {
		var next atomic.Int64
		e.pool.run(len(e.sims), func(wk int) {
			sim := e.sims[wk]
			for {
				lo := int(next.Add(claimChunk)) - claimChunk
				if lo >= work {
					return
				}
				hi := lo + claimChunk
				if hi > work {
					hi = work
				}
				for _, it := range e.worklist[lo:hi] {
					// Chunks are claimed in rising core order, so a
					// worker's first failure is its lowest.
					if err := e.runWorkItem(it, w, sim); err != nil && e.errs[wk].err == nil {
						e.errs[wk] = coreErr{it.core, fmt.Errorf("fleet: window %d core %d: %w", w, it.core, err)}
					}
				}
			}
		})
	}
	if err := e.residueErr(); err != nil {
		return err
	}
	// The walk deposited the coalesced spans; the residue's tails are
	// deposited here, after the pool joins, so every store stays on the
	// engine goroutine.
	for _, it := range e.worklist {
		e.deposit(it.client, e.tails[it.core], 1)
	}
	e.winTrace = append(e.winTrace, e.observe(w, asg))
	return nil
}

// residueErr returns the lowest failing residue core's error, whichever
// worker ran it, so the error does not depend on the worker count.
func (e *engine) residueErr() error {
	var first coreErr
	for _, ce := range e.errs {
		if ce.err != nil && (first.err == nil || ce.core < first.core) {
			first = ce
		}
	}
	return first.err
}

// deposit records m serving core-windows of client ci with tail t in the
// client's window and run stores and in the fleet store.
func (e *engine) deposit(ci int16, t float64, m int32) {
	e.winTails[ci].AddN(t, uint64(m))
	e.runTails[ci].AddN(t, uint64(m))
	e.fleetTail.AddN(t, uint64(m))
}

// aggregate folds the finished horizon into the Result: the counts from
// the per-window observations, the batch gain from the per-mode counts,
// and the tails from the run and fleet stores.
func (e *engine) aggregate() Result {
	cfg, n := e.cfg, len(e.qcfgs)
	calibHash := ""
	if cfg.Calibration != nil {
		calibHash = cfg.Calibration.Hash
	}
	res := Result{
		Cores: e.nCores, Windows: e.windows, WindowSec: cfg.Traffic.WindowSec,
		Policy:          cfg.Scheduler.Policy,
		Autoscale:       cfg.Autoscale.Policy,
		TailEstimator:   e.est,
		Engine:          cfg.Engine,
		AnalyticSolves:  e.solves,
		CalibrationHash: calibHash,
		TotalCoreHours:  float64(e.nCores) * cfg.Traffic.Hours(),
		WindowTrace:     e.winTrace,
		DecisionTrace:   e.decTrace,
	}
	windowHours := cfg.Traffic.WindowSec / 3600
	cms := make([]ClientMetrics, n)
	for ci, cl := range cfg.Traffic.Clients {
		cms[ci] = ClientMetrics{
			Client: cl.Name, Service: cl.Service, Batch: BatchPairing(cl), SLO: cl.SLO,
			Cores: e.winTrace[0].Clients[ci].Cores, TargetMs: e.qcfgs[ci].QoSTargetMs,
		}
	}
	for _, o := range e.winTrace {
		res.Migrations += o.Migrations
		res.DrainedCoreWindows += o.DrainedCores
		res.ParkedCoreWindows += o.ParkedCores
		res.IdleCoreWindows += o.IdleCores
		res.AnalyticCoreWindows += o.AnalyticCores
		res.CohortCoreWindows += o.CohortCores
		res.ViolationWindows += o.Violations
		for ci, co := range o.Clients {
			cm := &cms[ci]
			cm.CoreWindows += co.Cores
			cm.ViolationWindows += co.Violations
			// One addition per B-mode core-window: every addend is the
			// same, so the sum's bits depend only on the count (a product
			// float64(BCores)·windowHours would round differently).
			for range co.BCores {
				cm.EngagedCoreHours += windowHours
			}
		}
	}
	for ci := range cms {
		cm := &cms[ci]
		for mode, k := range e.batchCW[ci] {
			cm.BatchCoreHoursGained += float64(k) * (e.batchRelMode[ci][mode] - 1) * windowHours
		}
		// A client squeezed to zero core-windows has an empty store;
		// Quantile reports 0 for it, never NaN.
		cm.P99Ms = e.runTails[ci].Quantile(0.99)
		cm.P999Ms = e.runTails[ci].Quantile(0.999)
		res.EngagedCoreHours += cm.EngagedCoreHours
		res.BatchCoreHoursGained += cm.BatchCoreHoursGained
	}
	// Switches banked from released controllers, plus each live one's.
	res.Switches = e.switches
	for c := 0; c < e.nCores; c++ {
		if e.ctlClient[c] >= 0 {
			res.Switches += e.ctl[c].Switches()
		}
	}
	res.FleetP99Ms = e.fleetTail.Quantile(0.99)
	res.FleetP999Ms = e.fleetTail.Quantile(0.999)
	res.Clients = cms
	res.BatchGain = res.BatchCoreHoursGained / res.TotalCoreHours
	// Jain fairness over per-client SLO fulfilment: the non-violating
	// fraction of each client's serving core-windows, zero for a client
	// that served none (a squeezed-out client is maximally unfairly
	// treated, not absent).
	fulfil := make([]float64, n)
	for ci, cm := range cms {
		if cm.CoreWindows > 0 {
			fulfil[ci] = 1 - float64(cm.ViolationWindows)/float64(cm.CoreWindows)
		}
	}
	res.FairnessIndex = stats.Jain(fulfil)
	return res
}

// observe collects the window's measurements behind the barrier, in core
// order, into the observation record the scheduler sees next window, then
// reads each client's window p99 from its window store and resets it. A
// serving core's mode this window is its lastMode (the walk set it; the
// controller may have switched since), and its batch credit is that
// mode's.
func (e *engine) observe(w int, asg Assignment) WindowObservation {
	o := WindowObservation{
		Window: w, Clients: make([]ClientWindowObs, len(e.qcfgs)),
		AnalyticCores: e.analyticCW, CohortCores: e.cohortCW,
	}
	for c := 0; c < e.nCores; c++ {
		cl := asg.Client[c]
		switch {
		case cl == coreDrained:
			o.DrainedCores++
		case cl == coreParked:
			o.ParkedCores++
		case cl == coreIdle:
			o.IdleCores++
		default:
			co := &o.Clients[cl]
			t := e.tails[c]
			co.Cores++
			o.ServingCores++
			co.OfferedRPS += asg.Rate[c]
			co.MeanTailMs += t
			if t > co.MaxTailMs {
				co.MaxTailMs = t
			}
			if t > e.qcfgs[cl].QoSTargetMs {
				co.Violations++
				o.Violations++
			}
			mode := core.Mode(e.lastMode[c])
			if mode == core.ModeB {
				co.BCores++
				o.BCores++
			}
			co.BatchRel += e.batchRelMode[cl][mode]
			co.MeanSlack += e.ctl[c].Slack()
			if asg.Migrated[c] {
				o.Migrations++
			}
		}
	}
	for ci := range o.Clients {
		co := &o.Clients[ci]
		if co.Cores > 0 {
			co.MeanTailMs /= float64(co.Cores)
			co.MeanSlack /= float64(co.Cores)
			co.BatchRel /= float64(co.Cores)
			co.TailP99Ms = e.winTails[ci].Quantile(0.99)
		}
		e.winTails[ci].Reset()
	}
	return o
}
