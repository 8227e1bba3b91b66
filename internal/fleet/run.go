package fleet

import (
	"fmt"
	"runtime"
	"sync"

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
	for w := 0; w < e.windows; w++ {
		if err := e.runWindow(w); err != nil {
			return Result{}, err
		}
	}
	return e.aggregate(), nil
}

// newEngine validates cfg and resolves everything a run holds constant:
// per-client service configs and performance deltas, the scheduler, the
// per-server perf factors, the rng root, the solve cache (auto engine
// only), the tail stores, and one Simulator per residue worker.
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
	// every client shares the uniform scalars.
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
	// Only the auto engine solves; steadyTail answers nothing without a
	// cache.
	if cfg.Engine != EngineDiscrete {
		e.solveCache = queueing.NewTailCache(analyticCacheLimit)
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
	e.errs = make([]error, workers)
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
	return e, nil
}

// runWindow advances the fleet through window w: the scheduler's Step on
// the previous window's observation, the counterfactual evaluation, the
// cohort walk, one goroutine per share of the discrete residue, and
// the barrier's observation and decision record.
func (e *engine) runWindow(w int) error {
	var obs *WindowObservation
	if w > 0 {
		obs = &e.winTrace[w-1]
	}
	asg := e.st.Step(w, obs)
	rec := e.st.dec
	if e.cfK > 0 {
		// Evaluate the decision before the walk: the evaluator shares the
		// solve cache with it, on the engine goroutine only, so the trace
		// — like every other aggregate — cannot depend on the worker
		// count.
		if err := e.counterfactual(w, rec); err != nil {
			return err
		}
	}

	// Simulate the window, then barrier before observing. The cohort
	// walk answers coalescible spans serially and hands only the
	// discrete residue to the workers: the core-ordered worklist splits
	// into equal contiguous shares of at most minShare items, or one per
	// worker if that is fewer, each on its own goroutine and Simulator.
	// A share stops at its first failure, its lowest failing core, so the
	// first failing share holds the window's.
	e.walkWindow(asg)
	work := len(e.worklist)
	shares := min(len(e.sims), (work+minShare-1)/minShare)
	var wg sync.WaitGroup
	for s := range shares {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, it := range e.worklist[s*work/shares : (s+1)*work/shares] {
				if err := e.runWorkItem(it, w, e.sims[s]); err != nil {
					e.errs[s] = fmt.Errorf("fleet: window %d core %d: %w", w, it.core, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range e.errs[:shares] {
		if err != nil {
			return err
		}
	}
	// The walk deposited the coalesced spans; the residue's tails are
	// deposited here, after the workers join, so every store stays on the
	// engine goroutine.
	for _, it := range e.worklist {
		e.deposit(it.client, e.tails[it.core], 1)
	}
	o := e.observe(w, asg)
	e.winTrace = append(e.winTrace, o)
	if rec != nil {
		// The observation counted the same assignment's partition.
		rec.Drained, rec.Parked, rec.Idle = o.DrainedCores, o.ParkedCores, o.IdleCores
		rec.Migrations = o.Migrations
		if o.Migrations > 0 {
			rec.MigrationPenalty = migrationPenalty
		}
		e.decTrace = append(e.decTrace, *rec)
	}
	return nil
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
	bCW := make([]int, n)
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
			bCW[ci] += co.BCores
		}
	}
	for ci := range cms {
		cm := &cms[ci]
		cm.EngagedCoreHours = float64(bCW[ci]) * windowHours
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
