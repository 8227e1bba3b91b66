package fleet

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"stretch/internal/core"
	"stretch/internal/loadgen"
	"stretch/internal/monitor"
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
// per-client service configs and performance deltas, the planned
// scheduler, per-core perf factors and rng streams, the classifier
// inputs, the estimator's shards, and the worker pool. Callers must close
// the engine.
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
	qCost := cfg.QModeBatchCost
	if qCost == 0 {
		qCost = 0.15
	}
	monCfg := cfg.Monitor
	if monCfg == nil {
		monCfg = monitor.DefaultConfig
	}
	est := cfg.TailEstimator
	if est == stats.EstimatorDefault {
		est = stats.EstimatorHistogram
	}
	sched := cfg.Scheduler.withDefaults()
	auto := cfg.Autoscale.withDefaults()

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
	targets := make([]float64, n)
	qcfgs := make([]queueing.Config, n)
	lsSlowMode := make([][3]float64, n)
	batchRelMode := make([][3]float64, n)
	for ci, cl := range cfg.Traffic.Clients {
		svc := workload.Services()[cl.Service]
		targets[ci] = svc.QoSTargetMs * cl.SLO.Scale()
		qcfgs[ci] = queueing.Config{
			Workers: svc.Workers, MeanServiceMs: svc.MeanServiceMs,
			ServiceCV: svc.ServiceCV, BurstProb: svc.BurstProb, BurstLen: svc.BurstLen,
			QoSQuantile: svc.QoSQuantile, QoSTargetMs: targets[ci],
			Estimator: est,
		}
		if cfg.Calibration != nil {
			b := BatchPairing(cl)
			pb, _ := cfg.Calibration.Lookup(cl.Service, b, core.ModeB)
			pq, _ := cfg.Calibration.Lookup(cl.Service, b, core.ModeQ)
			lsSlowMode[ci] = [3]float64{0, pb.LSSlowdown, pq.LSSlowdown}
			batchRelMode[ci] = [3]float64{1, 1 + pb.BatchSpeedup, 1 + pq.BatchSpeedup}
		} else {
			lsSlowMode[ci] = [3]float64{0, cfg.LSSlowdownB, 0}
			batchRelMode[ci] = [3]float64{1, 1 + cfg.BatchSpeedupB, 1 - qCost}
		}
	}

	st := newStepper(sched, auto)
	var tracer decisionTracer
	if cfg.DecisionTrace != TraceOff {
		dt, ok := st.(decisionTracer)
		if !ok {
			return nil, fmt.Errorf("fleet: scheduler does not support decision tracing")
		}
		dt.SetTraceLevel(cfg.DecisionTrace)
		tracer = dt
	}
	if err := st.Plan(PlanInput{
		Servers: cfg.Servers, CoresPerServer: cfg.CoresPerServer,
		Traffic: cfg.Traffic, Timelines: timelines,
		Scenario: cfg.Scenario, Seed: cfg.Seed,
	}); err != nil {
		return nil, err
	}

	// Each core derives its own rng stream from the experiment seed and
	// its global index — and each window's simulation seed from that — so
	// neither the schedule nor the worker count can perturb results.
	root := rng.New(cfg.Seed).Derive(0xF1EE7)
	perfGen := cfg.Scenario.PerfFactors(cfg.Servers)
	e := &engine{
		cfg: cfg, est: est, policy: sched.Policy, autoPolicy: auto.Policy,
		st: st, tracer: tracer,
		nCores: nCores, windows: windows, windowReq: windowReq,
		migPenalty: sched.MigrationPenalty, monCfg: monCfg,
		engineSel:    cfg.Engine,
		lsSlowMode:   lsSlowMode,
		batchRelMode: batchRelMode,
		targets:      targets,
		qcfgs:        qcfgs,
		perf:         make([]float64, nCores),
		streams:      make([]rng.Stream, nCores),
		tails:        make([]float64, nCores*windows),
		batchRel:     make([]float64, nCores*windows),
		modeB:        make([]bool, nCores*windows),
		client:       make([]int16, nCores*windows),
		errs:         make([]error, nCores),
	}
	e.initCohorts(n)
	for c := 0; c < nCores; c++ {
		e.perf[c] = perfGen[c/cfg.CoresPerServer]
		e.streams[c] = *root.Derive(uint64(c))
	}
	// fluidOK gates the steadiness classifier; all false under the
	// discrete engine, so the cohort walk sends every positive-rate span
	// to the discrete residue.
	e.fluidOK = make([]bool, n)
	if cfg.Engine != EngineDiscrete {
		e.solveCache = queueing.NewTailCache(analyticCacheLimit)
		// Resolve the classification inputs: per-client utilization
		// coefficients, structural solver feasibility (probed once at a
		// comfortably steady utilization — the refusals that matter here
		// are rate-independent caps), and the steadiness mask from the
		// traffic shapes and scenario surges.
		e.analytic = make([]bool, nCores*windows)
		e.utilCoef = make([]float64, n)
		e.unsteady = make([][]bool, n)
		names := make([]string, n)
		for ci, cl := range cfg.Traffic.Clients {
			names[ci] = cl.Name
		}
		surges := cfg.Scenario.SurgeMatrix(names, windows)
		for ci, cl := range cfg.Traffic.Clients {
			e.utilCoef[ci] = queueing.Utilization(qcfgs[ci], 1, 1)
			if e.utilCoef[ci] > 0 && !math.IsInf(e.utilCoef[ci], 0) {
				_, err := queueing.Analytic(qcfgs[ci], 0.1/e.utilCoef[ci], 1)
				e.fluidOK[ci] = err == nil
			}
			e.unsteady[ci] = make([]bool, windows)
			for w := 0; w < windows; w++ {
				e.unsteady[ci][w] = loadgen.ShapeUnsteady(cl.Spec.Shape, w, windows) || surges[ci][w] != 1
			}
		}
	}

	if cfg.CounterfactualK > 0 {
		e.initCounterfactual(cfg.CounterfactualK, sched.MinCores, cfg.Seed)
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
	// fluid/auto engines go through the shared striped cache wired above.
	e.sims = make([]*queueing.Simulator, workers)
	for i := range e.sims {
		e.sims[i] = new(queueing.Simulator)
	}
	if est == stats.EstimatorHistogram {
		e.cohortShard = make([]*stats.Histogram, n)
		for ci := range e.cohortShard {
			e.cohortShard[ci] = stats.NewTailHistogram()
		}
		e.shards = make([][]*stats.Histogram, workers)
		for wk := range e.shards {
			e.shards[wk] = make([]*stats.Histogram, n)
			for ci := range e.shards[wk] {
				e.shards[wk][ci] = stats.NewTailHistogram()
			}
		}
		e.winHists = make([]*stats.Histogram, n)
		e.runHists = make([]*stats.Histogram, n)
		for ci := 0; ci < n; ci++ {
			e.winHists[ci] = stats.NewTailHistogram()
			e.runHists[ci] = stats.NewTailHistogram()
		}
		e.fleetHist = stats.NewTailHistogram()
	} else {
		e.winSamples = make([]*stats.Sample, n)
		for ci := range e.winSamples {
			e.winSamples[ci] = stats.NewSample(nCores)
		}
	}

	e.winTrace = make([]WindowObservation, 0, windows)
	if tracer != nil {
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
	if e.tracer != nil {
		// Capture (and counterfactually evaluate) the decision before
		// the worker pool runs: the record and the evaluator live on
		// the engine goroutine only, so the trace — like every other
		// aggregate — cannot depend on the worker count.
		rec := e.tracer.LastDecision()
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
	e.walkWindow(w, asg)
	if work := len(e.worklist); work > 0 {
		var next atomic.Int64
		e.pool.run(len(e.sims), func(wk int) {
			sim := e.sims[wk]
			var shard []*stats.Histogram
			if e.shards != nil {
				shard = e.shards[wk]
			}
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
					e.runWorkItem(it, w, sim, shard)
				}
			}
		})
	}
	for _, err := range e.errs {
		if err != nil {
			return err
		}
	}
	e.winTrace = append(e.winTrace, e.observe(w, asg))
	return nil
}

// aggregate folds the finished horizon into the Result.
func (e *engine) aggregate() Result {
	cfg, nCores, windows, n := e.cfg, e.nCores, e.windows, len(e.targets)
	winTrace := e.winTrace

	// Schedule bookkeeping falls out of the per-window observations.
	migrations, drainedCoreWindows, parkedCoreWindows, idleCoreWindows := 0, 0, 0, 0
	analyticCoreWindows, cohortCoreWindows := 0, 0
	for _, o := range winTrace {
		migrations += o.Migrations
		drainedCoreWindows += o.DrainedCores
		parkedCoreWindows += o.ParkedCores
		idleCoreWindows += o.IdleCores
		analyticCoreWindows += o.AnalyticCores
		cohortCoreWindows += o.CohortCores
	}
	initialCores := make([]int, n)
	if len(winTrace) > 0 {
		for ci := range initialCores {
			initialCores[ci] = winTrace[0].Clients[ci].Cores
		}
	}

	// Deterministic aggregation in core order — the exact accumulation
	// order of the former core-major engine, so aggregate floats (and the
	// golden files derived from them) are bit-identical.
	calibHash := ""
	if cfg.Calibration != nil {
		calibHash = cfg.Calibration.Hash
	}
	res := Result{
		Cores: nCores, Windows: windows, WindowSec: cfg.Traffic.WindowSec,
		Policy:              e.policy,
		Autoscale:           e.autoPolicy,
		TailEstimator:       e.est,
		Engine:              cfg.Engine,
		AnalyticCoreWindows: analyticCoreWindows,
		AnalyticSolves:      int(e.solves.Load()),
		CohortCoreWindows:   cohortCoreWindows,
		CalibrationHash:     calibHash,
		TotalCoreHours:      float64(nCores) * cfg.Traffic.Hours(),
		Migrations:          migrations,
		DrainedCoreWindows:  drainedCoreWindows,
		ParkedCoreWindows:   parkedCoreWindows,
		IdleCoreWindows:     idleCoreWindows,
		WindowTrace:         winTrace,
		DecisionTrace:       e.decTrace,
	}
	windowHours := cfg.Traffic.WindowSec / 3600
	// Under the exact estimator the per-client and fleet-wide tails need
	// every core-window tail retained and sorted; the histogram estimator
	// already folded them into runHists/fleetHist at the barriers.
	var perClient []*stats.Sample
	var fleetSample *stats.Sample
	if e.est == stats.EstimatorExact {
		perClient = make([]*stats.Sample, n)
		for ci := range perClient {
			perClient[ci] = stats.NewSample(initialCores[ci] * windows)
		}
		fleetSample = stats.NewSample(nCores * windows)
	}
	cms := make([]ClientMetrics, n)
	for ci, cl := range cfg.Traffic.Clients {
		cms[ci] = ClientMetrics{
			Client: cl.Name, Service: cl.Service, Batch: BatchPairing(cl), SLO: cl.SLO,
			Cores: initialCores[ci], TargetMs: e.targets[ci],
		}
	}
	for c := 0; c < nCores; c++ {
		for w := 0; w < windows; w++ {
			idx := c*windows + w
			ci := e.client[idx]
			if ci < 0 {
				continue
			}
			cm := &cms[ci]
			t := e.tails[idx]
			if perClient != nil {
				perClient[ci].Add(t)
				fleetSample.Add(t)
			}
			cm.CoreWindows++
			if t > e.targets[ci] {
				cm.ViolationWindows++
			}
			if e.modeB[idx] {
				cm.EngagedCoreHours += windowHours
			}
			// The fleet-wide gain keeps its own accumulator (in core-major
			// order, part of the byte-identical goldens contract) alongside
			// the per-client one; per-client gains sum to the fleet total.
			cm.BatchCoreHoursGained += (e.batchRel[idx] - 1) * windowHours
			res.BatchCoreHoursGained += (e.batchRel[idx] - 1) * windowHours
		}
		// Switches banked when the core left past classes, plus its
		// current class's live count.
		res.Switches += e.swBase[c]
		if k := e.classOf[c]; k >= 0 {
			res.Switches += e.classes[k].ctl.Switches()
		}
	}
	for ci := range cms {
		// A client squeezed to zero core-windows has an empty sample or
		// histogram; Quantile reports 0 for it, never NaN.
		if perClient != nil {
			cms[ci].P99Ms = perClient[ci].Quantile(0.99)
			cms[ci].P999Ms = perClient[ci].Quantile(0.999)
		} else {
			cms[ci].P99Ms = e.runHists[ci].Quantile(0.99)
			cms[ci].P999Ms = e.runHists[ci].Quantile(0.999)
		}
		res.ViolationWindows += cms[ci].ViolationWindows
		res.EngagedCoreHours += cms[ci].EngagedCoreHours
	}
	if fleetSample != nil {
		res.FleetP99Ms = fleetSample.Quantile(0.99)
		res.FleetP999Ms = fleetSample.Quantile(0.999)
	} else {
		res.FleetP99Ms = e.fleetHist.Quantile(0.99)
		res.FleetP999Ms = e.fleetHist.Quantile(0.999)
	}
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
// order, into the observation record the scheduler sees next window. One
// pass over the fleet fills the per-client aggregates and tail samples.
func (e *engine) observe(w int, asg Assignment) WindowObservation {
	o := WindowObservation{Window: w, Clients: make([]ClientWindowObs, len(e.targets))}
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
			idx := c*e.windows + w
			t := e.tails[idx]
			co.Cores++
			o.ServingCores++
			co.OfferedRPS += asg.Rate[c]
			co.MeanTailMs += t
			if t > co.MaxTailMs {
				co.MaxTailMs = t
			}
			if t > e.targets[cl] {
				co.Violations++
				o.Violations++
			}
			if e.modeB[idx] {
				co.BCores++
				o.BCores++
			}
			co.BatchRel += e.batchRel[idx]
			// A class's members share their controller's exact observation
			// history, so the class Slack IS each member's Slack.
			co.MeanSlack += e.classes[e.classOf[c]].ctl.Slack()
			if asg.Migrated[c] {
				o.Migrations++
			}
			if e.analytic != nil && e.analytic[idx] {
				o.AnalyticCores++
			}
			// Discrete zero-rate windows coalesce too but are not counted,
			// keeping discrete Results equal to their pre-walk goldens.
			if e.engineSel != EngineDiscrete && (e.analytic[idx] || asg.Rate[c] == 0) {
				o.CohortCores++
			}
			if e.winSamples != nil {
				e.winSamples[cl].Add(t)
			}
		}
	}
	if e.shards != nil {
		// Merge the workers' per-client shards (in worker order — though
		// integer counts make any order equivalent) into the window
		// histograms, fold those into the horizon aggregates, and hand the
		// cleared shards back to the next window.
		for _, shard := range e.shards {
			for ci, h := range shard {
				e.winHists[ci].Merge(h)
				h.Reset()
			}
		}
		// The coalesced AddN deposits merge like one more worker shard:
		// integer counts, so placement in the merge order cannot perturb
		// the histograms.
		for ci, h := range e.cohortShard {
			e.winHists[ci].Merge(h)
			h.Reset()
		}
	}
	for ci := range o.Clients {
		co := &o.Clients[ci]
		if e.winHists != nil {
			if co.Cores > 0 {
				co.TailP99Ms = e.winHists[ci].Quantile(0.99)
			}
			e.runHists[ci].Merge(e.winHists[ci])
			e.fleetHist.Merge(e.winHists[ci])
			e.winHists[ci].Reset()
		}
		if co.Cores == 0 {
			continue
		}
		co.MeanTailMs /= float64(co.Cores)
		co.MeanSlack /= float64(co.Cores)
		co.BatchRel /= float64(co.Cores)
		if e.winSamples != nil {
			co.TailP99Ms = e.winSamples[ci].Quantile(0.99)
			e.winSamples[ci].Reset()
		}
	}
	return o
}
