package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"stretch/internal/fleet"
)

const (
	// e2eWorkers is the end-to-end pass's worker count; its child process
	// also runs at GOMAXPROCS 1. On a small shared host a second busy
	// thread times the neighbours as much as the program: on a 2-vCPU VM
	// the timed runs of one pass spread 10-20% at two workers and 1-3% at
	// one. The traced pass measures what more workers buy.
	e2eWorkers = 1
	// The end-to-end pass builds the inputs at least setupReps times and
	// for at least setupSeconds; setup_s is the median.
	setupReps    = 5
	setupSeconds = 1.0
	// minTimedRuns is the least number of timed runs per pass, however
	// short --seconds is.
	minTimedRuns = 3
)

// passResult is what one pass of one workload reports to the parent.
type passResult struct {
	Workload  string          `json:"workload"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Errors    []string        `json:"errors,omitempty"`
	Digest    string          `json:"digest"`
	Metrics   map[string]stat `json:"metrics"`
	Spans     []span          `json:"spans,omitempty"`
}

func newPass(name string) *passResult {
	return &passResult{Workload: name, Metrics: map[string]stat{}}
}

// attempt counts one operation and reports whether it succeeded.
func (p *passResult) attempt(err error) bool {
	p.Attempted++
	if err != nil {
		p.Failed++
		p.Errors = append(p.Errors, err.Error())
		return false
	}
	return true
}

// set records a metric's samples under its registered unit.
func (p *passResult) set(name string, xs ...float64) {
	m, ok := lookupMetric(name)
	if !ok {
		panic("unregistered metric " + name)
	}
	s := summarize(xs)
	s.Unit = m.Unit
	p.Metrics[name] = s
}

// cost is one run's host cost, measured around the call into the program
// only: checks, digests and the benchmark's own bookkeeping fall outside.
type cost struct {
	wall, cpu float64 // seconds
	alloc     uint64  // bytes, the runtime.MemStats.TotalAlloc delta
}

// measure runs f after a GC, so that every run starts from the same heap,
// and returns its host cost. With a recorder it also records f as a span.
func measure(rec *recorder, name string, parent int, f func()) cost {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	id := rec.begin(name, parent)
	f()
	rec.end(id)
	c := cost{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0}
	runtime.ReadMemStats(&m1)
	c.alloc = m1.TotalAlloc - m0.TotalAlloc
	return c
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// runChecked runs the job once, checks the outcome and requires its
// digest to equal every earlier run's in this pass: seed determinism and
// worker-count independence. It returns the outcome, its cost, and
// whether it passed.
func (p *passResult) runChecked(j *job, workers int, rec *recorder, parent int) (outcome, cost, bool) {
	var o outcome
	var err error
	c := measure(rec, j.call(), parent, func() { o, err = j.run(workers) })
	if err == nil {
		err = p.checkOutcome(o)
	}
	return o, c, p.attempt(err)
}

// checkOutcome checks the outcome's consistency and its digest.
func (p *passResult) checkOutcome(o outcome) error {
	var err error
	if o.plan != nil {
		err = checkPlan(*o.plan)
	} else {
		err = checkConservation(*o.res)
	}
	if err != nil {
		return err
	}
	d, err := o.digest()
	if err != nil {
		return err
	}
	if p.Digest == "" {
		p.Digest = d
	} else if d != p.Digest {
		return fmt.Errorf("digest %.12s differs from the pass's first run %.12s", d, p.Digest)
	}
	return nil
}

// setupOnce builds the job and returns it with the host seconds it took.
func setupOnce(p *passResult, w benchWorkload, seed uint64, toy bool, rec *recorder, parent int) (*job, float64) {
	t0 := time.Now()
	j, err := w.setup(seed, toy, rec, parent)
	d := time.Since(t0).Seconds()
	if !p.attempt(err) {
		return nil, d
	}
	return j, d
}

// checkRecipe compares the week recipe with the committed trace for the
// trace-driven workloads.
func checkRecipe(p *passResult, j *job) {
	if j.cells > 0 {
		p.attempt(checkWeekTrace())
	}
}

// endToEndPass measures the end-to-end metrics with tracing off, at
// e2eWorkers: repeated set-up, one untimed warm-up run, then timed runs
// for seconds, at least minTimedRuns of them.
func endToEndPass(w benchWorkload, seed uint64, seconds float64, toy bool) *passResult {
	p := newPass(w.name)
	var j *job
	var setups []float64
	for i, start := 0, time.Now(); i < setupReps || time.Since(start).Seconds() < setupSeconds; i++ {
		jj, d := setupOnce(p, w, seed, toy, nil, 0)
		if jj == nil {
			break
		}
		j = jj
		setups = append(setups, d)
	}
	if j == nil {
		return p
	}
	checkRecipe(p, j)
	p.runChecked(j, e2eWorkers, nil, 0)

	var walls, rates, allocs []float64
	var last outcome
	start := time.Now()
	// Timed runs stop before one more would overrun seconds, by the last
	// run's length, so a pass takes about as long as it was given.
	for n, lastWall := 0, 0.0; n < minTimedRuns || time.Since(start).Seconds()+lastWall <= seconds; n++ {
		o, c, ok := p.runChecked(j, e2eWorkers, nil, 0)
		lastWall = c.wall
		if !ok {
			continue
		}
		last = o
		walls = append(walls, c.wall)
		rates = append(rates, float64(o.serving)/c.wall)
		allocs = append(allocs, float64(c.alloc)/1e6)
	}
	if len(walls) == 0 {
		return p
	}
	p.set("wall_s", walls...)
	p.set("cw_per_s", rates...)
	p.set("setup_s", setups...)
	p.set("alloc_mb", allocs...)
	p.set("qos_met_frac", 1-last.viol)
	p.set("batch_gain_pct", last.gainPct)
	p.set("fleet_p99_ms", last.p99)
	return p
}

// tracedPass measures the per-layer metrics. After set-up and an untraced
// warm-up, an untraced run at the given workers gives the CPU, allocation
// and tracing-overhead baselines. Spans are recorded around the
// benchmark's calls into each layer: set-up; run 1, at the same workers
// again; run 2 at one worker, so that wall time is self time; and the
// replay of run 2's own inputs through queueing, monitor and stats.
func tracedPass(w benchWorkload, seed uint64, toy bool, workers int) *passResult {
	p := newPass(w.name)
	rec := newRecorder(w.name)
	root := rec.begin("workload", 0)
	setupID := rec.begin("setup", root)
	j, _ := setupOnce(p, w, seed, toy, rec, setupID)
	rec.end(setupID)
	if j == nil {
		return p
	}
	checkRecipe(p, j)
	id := rec.begin("loadgen.Timelines", root)
	_, err := j.gen.Timelines(seed)
	timelines := rec.end(id)
	p.attempt(err)

	// An untraced warm-up, so that the two timed runs below both start
	// warm and their difference is the tracing overhead.
	p.runChecked(j, workers, nil, 0)
	o, base, ok1 := p.runChecked(j, workers, nil, 0)
	rec.run = 1
	_, traced, ok2 := p.runChecked(j, workers, rec, root)
	rec.run = 2
	results, runW1, ok3 := runOneWorker(p, j, o, rec, root)
	if !ok1 || !ok2 || !ok3 {
		return p
	}
	rec.run = 0
	id = rec.begin("replay", root)
	budget := time.Second
	if toy {
		budget = 50 * time.Millisecond
	}
	costs, err := replay(replayPoints(j, results), seed, budget, rec, id)
	rec.end(id)
	rec.end(root)
	if !p.attempt(err) {
		return p
	}

	var serving, discrete, w0, analytic, cohort, migrations, solves, merges int
	var switches uint64
	for _, res := range results {
		s := servingCW(res)
		serving += s
		cohort += res.CohortCoreWindows
		discrete += s - res.CohortCoreWindows
		w0 += res.WindowTrace[0].ServingCores - res.WindowTrace[0].CohortCores
		analytic += res.AnalyticCoreWindows
		migrations += res.Migrations
		solves += res.AnalyticSolves
		switches += res.Switches
		// At one worker each window merges every client's worker shard
		// into the window histogram, then that into the run and fleet
		// histograms.
		merges += 3 * res.Windows * len(res.Clients)
	}
	simReq := float64(discrete) * windowReq
	simS := costs.simNsPerReq * simReq / 1e9
	solveS := costs.solveUs * float64(solves) / 1e6
	observeS := costs.observeNs * float64(discrete) / 1e9
	statsS := (costs.addNs*float64(discrete) + 1e3*costs.mergeUs*float64(merges)) / 1e9
	overhead := runW1 - simS - solveS - observeS - statsS

	p.set("fleet.serving_cw", float64(serving))
	p.set("fleet.discrete_cw", float64(discrete))
	p.set("fleet.discrete_cw_w0", float64(w0))
	p.set("fleet.analytic_cw", float64(analytic))
	p.set("fleet.cohort_cw", float64(cohort))
	p.set("fleet.cohort_hit_ratio", float64(cohort)/float64(serving))
	p.set("fleet.migrations", float64(migrations))
	probes, planCores := 0, 0
	if o.plan != nil {
		probes, planCores = len(o.plan.Probes), o.plan.Cores
	}
	p.set("fleet.plan_probes", float64(probes))
	p.set("fleet.plan_cores", float64(planCores))
	p.set("fleet.run_s_w1", runW1)
	p.set("fleet.ns_per_cw", runW1*1e9/float64(serving))
	p.set("fleet.worker_speedup", runW1/base.wall)
	p.set("fleet.cpu_util", base.cpu/(base.wall*float64(workers)))
	p.set("fleet.alloc_bytes_per_cw", float64(base.alloc)/float64(o.serving))
	p.set("fleet.overhead_s", overhead)
	p.set("fleet.overhead_share", overhead/runW1)
	p.set("queueing.sim_requests", simReq)
	p.set("queueing.sim_ns_per_req", costs.simNsPerReq)
	p.set("queueing.sim_share", simS/runW1)
	p.set("queueing.analytic_solves", float64(solves))
	p.set("queueing.solve_us", costs.solveUs)
	p.set("queueing.solve_share", solveS/runW1)
	hit := 0.0
	if analytic > 0 {
		hit = 1 - float64(solves)/float64(analytic)
	}
	p.set("queueing.solve_cache_hit_ratio", hit)
	p.set("queueing.tailcache_hit_ns", costs.cacheHitNs)
	p.set("queueing.peakload_ms", 1e3*rec.seconds("queueing.PeakLoad"))
	p.set("monitor.switches", float64(switches))
	p.set("monitor.observe_ns", costs.observeNs)
	p.set("stats.hist_add_ns", costs.addNs)
	p.set("stats.hist_merge_us", costs.mergeUs)
	p.set("loadgen.timelines_ms", 1e3*timelines)
	p.set("tracefile.synth_ms", 1e3*rec.seconds("tracefile.Synth"))
	parse := rec.seconds("tracefile.Parse")
	p.set("tracefile.parse_ms", 1e3*parse)
	perCell := 0.0
	if j.cells > 0 {
		perCell = parse * 1e9 / float64(j.cells)
	}
	p.set("tracefile.parse_ns_per_cell", perCell)
	p.set("trace_overhead_pct", 100*(traced.wall-base.wall)/base.wall)
	p.Spans = rec.spans
	return p
}

// runOneWorker reruns the job at one worker with a span per fleet.Run and
// returns the runs' Results and their summed host seconds. A capacity
// search reruns each probe of o's plan, in the plan's order, and rebuilds
// the plan from them, so its digest must match the multi-worker run's.
func runOneWorker(p *passResult, j *job, o outcome, rec *recorder, root int) ([]fleet.Result, float64, bool) {
	if j.plan == nil {
		o1, c, ok := p.runChecked(j, 1, rec, root)
		if !ok {
			return nil, 0, false
		}
		return []fleet.Result{*o1.res}, c.wall, true
	}
	if o.plan == nil {
		return nil, 0, false
	}
	plan := *o.plan
	plan.Probes = nil
	var results []fleet.Result
	var wall float64
	for _, pt := range o.plan.Probes {
		cfg := j.cfg
		cfg.Servers, cfg.Workers = pt.Servers, 1
		var res fleet.Result
		var err error
		wall += measure(rec, "fleet.Run", root, func() { res, err = fleet.Run(cfg) }).wall
		if err == nil {
			err = checkConservation(res)
		}
		if err == nil && servingCW(res) != res.Cores*res.Windows {
			// The plan's serving core-windows are counted as cores × windows.
			err = fmt.Errorf("probe at %d servers left core-windows unserved", pt.Servers)
		}
		if !p.attempt(err) {
			return nil, 0, false
		}
		results = append(results, res)
		plan.Probes = append(plan.Probes, fleet.CapacityPoint{
			Servers: pt.Servers, Cores: res.Cores,
			ViolationWindows:     res.ViolationWindows,
			Met:                  res.ViolationWindows <= plan.Budget,
			FleetP99Ms:           res.FleetP99Ms,
			BatchCoreHoursGained: res.BatchCoreHoursGained,
		})
	}
	rebuilt, err := planOutcome(plan, j.cfg.Traffic)
	if err == nil {
		err = p.checkOutcome(rebuilt)
	}
	return results, wall, p.attempt(err)
}
