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
// migrated, controller class). A span whose classification is steady is
// answered once — one analytic solve, one Histogram.AddN deposit of the
// span's whole count, a bulk fill of the window slices, and one
// representative controller per equivalence class. Under the discrete
// engine classification is off: only zero-rate spans coalesce, and every
// other core-window is discrete residue.
//
// Controller equivalence is exact, not approximate: monitor.Controller is
// a deterministic all-scalar function of its observation stream, so cores
// that have observed identical tail histories hold identical controller
// values. The engine tracks that sharing as lazily-split classes: a class
// forks a core out (copying its by-value controller) the moment the core
// diverges — a discrete window, a migration, a drain/park/handover
// transition — and re-merges classes whose post-observation states collide
// (after a shared steady window every member has observed the same tail,
// so formerly distinct classes often collapse back together; the merge map
// is what keeps the class population proportional to the number of
// distinct histories, not the number of cores).
//
// Discrete-residue cores keep their per-core (seed, core, window) rng
// streams untouched and run on the worker pool one core at a time, so the
// determinism contract — byte-identical goldens, DeepEqual across worker
// counts — holds exactly. The per-core reference engine this path
// replaced committed a digest of every equivalence cell
// (testdata/equivalence_digests.golden); cohort_test.go holds the walk to
// those digests.
package fleet

import (
	"math"
	"sync"

	"stretch/internal/core"
	"stretch/internal/monitor"
	"stretch/internal/queueing"
	"stretch/internal/stats"
)

// claimChunk is the number of work units a pool worker claims per atomic
// increment. One atomic per core made the claim counter the hottest cache
// line in a million-core window; block claims amortise it 128×, and the
// chunk is small enough that the tail imbalance (≤ chunk per worker) is
// noise at every fleet size the benches run.
const claimChunk = 128

// cohortClass is one controller-equivalence class: the controller value
// shared — by construction, not by assumption — by every core whose
// observation history matches. size counts current members; born is the
// window the class was created in (−2 marks a freed table slot awaiting
// reuse), which guards the in-place singleton advance, decides whether an
// emptied class is freed at once or at the window's sweep, and guards the
// sweep against double frees.
type cohortClass struct {
	ctl      monitor.Controller
	client   int16
	lastMode int8
	born     int32
	size     int32
}

// mergeKey identifies classes that become indistinguishable after a
// coalesced window: identical controller value (all-scalar, so directly
// comparable), identical owner and identical settled mode. Classes mapping
// to the same key are re-merged rather than kept apart forever.
type mergeKey struct {
	ctl      monitor.Controller
	client   int16
	lastMode int8
}

// workItem is one discrete-residue core-window handed to the pool: the
// core keeps its own derived seed, its forked class holds its controller.
type workItem struct {
	core       int32
	class      int32
	rate, perf float64
}

// workerPool is the persistent pool the engine reuses across all windows —
// the former per-window spawn loop created workers × windows goroutines
// per run. Jobs are dispatched per window and joined on the pool's own
// WaitGroup; the channel send/receive pairs give the race detector (and
// the memory model) the happens-before edges the barrier needs.
type workerPool struct {
	jobs chan func()
	wg   sync.WaitGroup
}

func newWorkerPool(n int) *workerPool {
	p := &workerPool{jobs: make(chan func())}
	for i := 0; i < n; i++ {
		go func() {
			for fn := range p.jobs {
				fn()
				p.wg.Done()
			}
		}()
	}
	return p
}

// run dispatches fn(wk) for each worker index and blocks until all return.
func (p *workerPool) run(n int, fn func(wk int)) {
	p.wg.Add(n)
	for wk := 0; wk < n; wk++ {
		wk := wk
		p.jobs <- func() { fn(wk) }
	}
	p.wg.Wait()
}

func (p *workerPool) close() { close(p.jobs) }

// initCohorts wires the cohort walk's state. The class table holds the
// distinct controller histories alive at once: at most one class per
// core, plus one emptied freshFor class per client awaiting the window's
// sweep, so it is sized once for nCores+nClients and never regrows. Freed
// slots recycle through freeClass, so a discrete window's forks reuse the
// slots its own departures release. The worklist holds at most one item
// per core.
func (e *engine) initCohorts(nClients int) {
	e.classOf = make([]int32, e.nCores)
	for c := range e.classOf {
		e.classOf[c] = -1
	}
	e.classes = make([]cohortClass, 0, e.nCores+nClients)
	e.worklist = make([]workItem, 0, e.nCores)
	e.swBase = make([]uint64, e.nCores)
	e.mergeMap = make(map[mergeKey]int32)
	e.freshFor = make([]int32, nClients)
}

// newClass allocates a class table slot, recycling freed ones.
func (e *engine) newClass(cl cohortClass) int32 {
	if n := len(e.freeClass); n > 0 {
		k := e.freeClass[n-1]
		e.freeClass = e.freeClass[:n-1]
		e.classes[k] = cl
		return k
	}
	e.classes = append(e.classes, cl)
	return int32(len(e.classes) - 1)
}

// dropMembers removes m members from class k in window w. Cores join only
// classes minted this window (freshFor classes and merge targets), so an
// emptied class minted earlier is unreachable and its slot is freed at
// once. An emptied class minted this window may still be rejoined through
// freshFor later in the walk; it waits in retired for the end-of-window
// sweep.
func (e *engine) dropMembers(k, m int32, w int) {
	cl := &e.classes[k]
	if cl.size -= m; cl.size > 0 {
		return
	}
	if cl.born < int32(w) {
		cl.born = -2
		e.freeClass = append(e.freeClass, k)
	} else {
		e.retired = append(e.retired, k)
	}
}

// leaveClass removes core c from class k, banking the class controller's
// switch count into the core's own base at departure time (the class
// controller may be reused or merged away before the core's next reset).
func (e *engine) leaveClass(c int, k int32, w int) {
	e.swBase[c] += e.classes[k].ctl.Switches()
	e.dropMembers(k, 1, w)
	e.classOf[c] = -1
}

// walkWindow is phase one of a window: a single serial walk over the plan
// that answers every coalescible span in closed form and queues the
// discrete residue for the pool. Serial is deliberate — span handling
// mutates the shared class table and merge map, and the walk is O(spans +
// cores·(slice fills)) with no simulation inside, so it is never the
// bottleneck; the expensive residue runs on the pool in phase two.
func (e *engine) walkWindow(w int, asg Assignment) {
	e.worklist = e.worklist[:0]
	e.retired = e.retired[:0]
	for ci := range e.freshFor {
		e.freshFor[ci] = -1
	}
	clear(e.mergeMap)

	spanStart := -1
	var spanClass int32
	var spanCi int16
	var spanRate, spanPerf float64
	var spanMig bool
	flush := func(end int) {
		if spanStart >= 0 {
			e.subRun(w, spanClass, spanStart, end, spanCi, spanRate, spanPerf, spanMig)
			spanStart = -1
		}
	}

	for c := 0; c < e.nCores; c++ {
		ci := asg.Client[c]
		if ci < 0 {
			flush(c)
			idx := c*e.windows + w
			e.client[idx] = ci
			e.tails[idx] = math.NaN()
			if ci == coreIdle {
				// An in-service core with no LS client runs batch exactly
				// as the equal-partitioning baseline would: no gain.
				e.batchRel[idx] = 1
			}
			if k := e.classOf[c]; k >= 0 {
				e.leaveClass(c, k, w)
			}
			continue
		}
		k := e.classOf[c]
		if k < 0 || e.classes[k].client != ci {
			// Handover (or return from a sentinel state): cold start with a
			// freshly reset controller.
			flush(c)
			if k >= 0 {
				e.leaveClass(c, k, w)
			}
			k = e.freshFor[ci]
			if k < 0 {
				k = e.newClass(cohortClass{client: ci, lastMode: -1, born: int32(w)})
				if err := e.classes[k].ctl.Reset(e.monCfg(e.targets[ci])); err != nil {
					e.errs[c] = err
					continue
				}
				e.freshFor[ci] = k
			}
			e.classOf[c] = k
			e.classes[k].size++
		}
		rate, mig, perf := asg.Rate[c], asg.Migrated[c], e.perf[c]
		if spanStart >= 0 && (k != spanClass || rate != spanRate || perf != spanPerf || mig != spanMig) {
			flush(c)
		}
		if spanStart < 0 {
			spanStart, spanClass, spanCi = c, k, ci
			spanRate, spanPerf, spanMig = rate, perf, mig
		}
	}
	flush(e.nCores)

	// Reclaim the classes minted this window that emptied. born == -2
	// marks a slot already freed, guarding against duplicate retire
	// entries; a class that emptied mid-walk but was rejoined later has
	// size > 0 again and survives.
	for _, k := range e.retired {
		if e.classes[k].size == 0 && e.classes[k].born >= 0 {
			e.classes[k].born = -2
			e.freeClass = append(e.freeClass, k)
		}
	}
}

// subRun executes one maximal run of cores sharing (class, client, rate,
// perf, migrated) — the cohort key. The mode, effective perf factor
// (scaled by the server's generation, the engaged mode's calibrated LS
// delta and any migration penalty), batch credit and steadiness
// classification are computed once for the whole run: identical inputs
// would give every member core the identical answer.
func (e *engine) subRun(w int, k int32, a, b int, ci int16, rate, rawPerf float64, mig bool) {
	m := int32(b - a)
	mode := e.classes[k].ctl.Mode()
	perf := rawPerf
	if s := e.lsSlowMode[ci][mode]; s != 0 {
		perf *= 1 - s
	}
	if mig {
		perf *= 1 - e.migPenalty
	}
	modeB := mode == core.ModeB
	var bRel float64
	if modeB && mig && e.migPenalty > 0 {
		// Warming the new client's working set eats the bonus.
		bRel = 1
	} else {
		bRel = e.batchRelMode[ci][mode]
	}
	for c := a; c < b; c++ {
		idx := c*e.windows + w
		e.client[idx] = ci
		e.batchRel[idx] = bRel
		if modeB {
			e.modeB[idx] = true
		}
	}

	// The steadiness classifier. Fluid takes the analytic path wherever it
	// is sound; auto additionally demands a steady window — settled mode,
	// no migration cold-start, no burst/surge turbulence, and utilization
	// inside the guard band. fluidOK is all false under the discrete
	// engine. A solver refusal drops the whole span to the discrete
	// residue, never errors the run.
	tail, analytic, coalesced := 0.0, false, false
	if rate > 0 {
		if e.fluidOK[ci] {
			util := rate * e.utilCoef[ci] / perf
			var steady bool
			if e.engineSel == EngineFluid {
				steady = util < queueing.AnalyticMaxUtilization
			} else {
				steady = util <= autoSteadyMaxUtil && int8(mode) == e.classes[k].lastMode &&
					!mig && !e.unsteady[ci][w]
			}
			if steady {
				if t, ok := e.analyticTail(ci, rate, perf); ok {
					tail, analytic, coalesced = t, true, true
				}
			}
		}
	} else {
		// An idle window — a Poisson draw of zero arrivals, or a window the
		// scheduler routed no load to — skips the queueing simulation under
		// every engine and reads as zero tail: maximal slack. This is
		// deliberate: a core with nothing to serve cannot violate its
		// target, its controller sees the deepest possible headroom
		// (driving it toward B-mode), and the zero is recorded like any
		// other tail under both estimators — it lands in the exact samples
		// and in the histogram's bottom bucket alike, so idle windows pull
		// the measured quantiles down rather than being silently dropped.
		coalesced = true
	}

	if coalesced {
		// Answer the whole cohort at once. Every member observes the same
		// tail, so the post-observation controller is one shared value:
		// look it up in the merge map and fold the members into whichever
		// class already carries that exact state (or mint one). The
		// members leave k first, so a slot k frees is the one minted.
		cand := e.classes[k].ctl
		cand.Observe(monitor.Observation{TailMs: tail})
		e.dropMembers(k, m, w)
		mk := mergeKey{ctl: cand, client: ci, lastMode: int8(mode)}
		tgt, ok := e.mergeMap[mk]
		if !ok {
			tgt = e.newClass(cohortClass{ctl: cand, client: ci, lastMode: int8(mode), born: int32(w)})
			e.mergeMap[mk] = tgt
		}
		for c := a; c < b; c++ {
			idx := c*e.windows + w
			e.tails[idx] = tail
			if analytic {
				e.analytic[idx] = true
			}
			e.classOf[c] = tgt
		}
		e.classes[tgt].size += m
		if e.cohortShard != nil {
			e.cohortShard[ci].AddN(tail, uint64(m))
		}
		return
	}

	// Discrete residue: each member diverges through its own rng stream,
	// so each forks out into a singleton class the pool can advance
	// independently. A sole surviving member of an old class advances in
	// place — the steady state of a settled discrete fleet, paying no
	// table traffic at all.
	if m == 1 && e.classes[k].size == 1 && e.classes[k].born < int32(w) {
		e.classes[k].lastMode = int8(mode)
		e.worklist = append(e.worklist, workItem{core: int32(a), class: k, rate: rate, perf: perf})
		return
	}
	base := e.classes[k].ctl
	e.dropMembers(k, m, w)
	lm := int8(mode)
	for c := a; c < b; c++ {
		sk := e.newClass(cohortClass{ctl: base, client: ci, lastMode: lm, born: int32(w), size: 1})
		e.classOf[c] = sk
		e.worklist = append(e.worklist, workItem{core: int32(c), class: sk, rate: rate, perf: perf})
	}
}

// runWorkItem is phase two's unit of work: one discrete-residue
// core-window, simulated through the worker's reusable Simulator on the
// core's own (seed, core, window)-derived stream, its tail deposited into
// the worker's shard and observed by the core's singleton class. Items
// touch disjoint cores and classes, so the pool needs no locking beyond
// the claim counter.
func (e *engine) runWorkItem(it workItem, w int, sim *queueing.Simulator, shard []*stats.Histogram) {
	c := int(it.core)
	idx := c*e.windows + w
	ci := e.client[idx]
	seed := e.streams[c].Derive(uint64(w)).Uint64()
	if err := sim.Reset(e.qcfgs[ci]); err != nil {
		e.errs[c] = err
		return
	}
	qr, err := sim.Simulate(it.rate, e.windowReq, it.perf, seed)
	if err != nil {
		e.errs[c] = err
		return
	}
	e.tails[idx] = qr.QoSMs
	if shard != nil {
		shard[ci].Add(qr.QoSMs)
	}
	e.classes[it.class].ctl.Observe(monitor.Observation{TailMs: qr.QoSMs})
}
