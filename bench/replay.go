package main

import (
	"fmt"
	"math"
	"time"

	"stretch/internal/fleet"
	"stretch/internal/monitor"
	"stretch/internal/queueing"
	"stretch/internal/stats"
	"stretch/internal/workload"
)

// point is one sampled (window, client) of a finished run: the client's
// service at its SLO-scaled target and its per-core arrival rate that
// window, weighted by the cores that served it.
type point struct {
	cfg    queueing.Config
	rate   float64
	weight int
}

// sampleWindows is how many windows of each run the replay samples.
const sampleWindows = 24

// replayPoints samples every k-th window of each run's WindowTrace so
// that about sampleWindows windows per run are taken, and each client's
// per-core rate (OfferedRPS / Cores) in them. The service configurations
// are built the way fleet.Run builds them from the traffic.
func replayPoints(j *job, results []fleet.Result) []point {
	clients := j.cfg.Traffic.Clients
	cfgs := make([]queueing.Config, len(clients))
	for ci, cl := range clients {
		svc := workload.Services()[cl.Service]
		cfgs[ci] = queueing.Config{
			Workers: svc.Workers, MeanServiceMs: svc.MeanServiceMs,
			ServiceCV: svc.ServiceCV, BurstProb: svc.BurstProb, BurstLen: svc.BurstLen,
			QoSQuantile: svc.QoSQuantile, QoSTargetMs: svc.QoSTargetMs * cl.SLO.Scale(),
			Estimator: stats.EstimatorHistogram,
		}
	}
	var pts []point
	for _, res := range results {
		k := max(1, len(res.WindowTrace)/sampleWindows)
		for w := 0; w < len(res.WindowTrace); w += k {
			for ci, co := range res.WindowTrace[w].Clients {
				if co.Cores > 0 && co.OfferedRPS > 0 {
					pts = append(pts, point{cfg: cfgs[ci], rate: co.OfferedRPS / float64(co.Cores), weight: co.Cores})
				}
			}
		}
	}
	return pts
}

// layerCosts are the replayed per-call costs of the layers fleet.Run
// calls into. They are measured at perf factor 1, so a run's B-mode
// slowdown and migration penalty are not in them: they are estimates.
type layerCosts struct {
	simNsPerReq float64 // queueing.Simulator.Simulate, per simulated request
	solveUs     float64 // a solve-cache miss: Lookup, AnalyticTail, Insert
	cacheHitNs  float64 // queueing.TailCache.Lookup hit
	observeNs   float64 // monitor.Controller.Observe
	addNs       float64 // stats.Histogram.Add
	mergeUs     float64 // stats.Histogram.Merge
}

// replay times the public entry points of queueing, monitor and stats on
// the sampled points. The simulator replay runs until simBudget of
// simulator time has accumulated and every point ran at least once; the
// analytic replay gets a quarter of that.
func replay(pts []point, seed uint64, simBudget time.Duration, rec *recorder, parent int) (layerCosts, error) {
	var c layerCosts
	if len(pts) == 0 {
		return c, fmt.Errorf("replay: no serving windows to sample")
	}
	tails := make([]float64, len(pts))

	id := rec.begin("replay.queueing.Simulate", parent)
	var sim queueing.Simulator
	per := make([]time.Duration, len(pts))
	calls := make([]int, len(pts))
	var total time.Duration
	for i := 0; i < len(pts) || total < simBudget; i++ {
		p := pts[i%len(pts)]
		if err := sim.Reset(p.cfg); err != nil {
			return c, err
		}
		t0 := time.Now()
		r, err := sim.Simulate(p.rate, windowReq, 1, seed+uint64(i))
		dt := time.Since(t0)
		if err != nil {
			return c, err
		}
		per[i%len(pts)] += dt
		calls[i%len(pts)]++
		total += dt
		tails[i%len(pts)] = r.QoSMs
	}
	c.simNsPerReq = weightedMean(pts, per, calls) / windowReq
	rec.end(id)

	// A solve as the engine pays it on a miss of a fresh cache. Points the
	// solver refuses would run discrete in the engine; they are skipped.
	id = rec.begin("replay.queueing.AnalyticTail", parent)
	per = make([]time.Duration, len(pts))
	calls = make([]int, len(pts))
	total = 0
	for i := 0; i < len(pts) || total < simBudget/4; i++ {
		p := pts[i%len(pts)]
		cache := queueing.NewTailCache(1 << 16)
		k := queueing.TailKey{Rate: math.Float64bits(p.rate), Perf: math.Float64bits(1)}
		t0 := time.Now()
		cache.Lookup(k)
		v, err := queueing.AnalyticTail(p.cfg, p.rate, 1, windowReq)
		if err == nil {
			cache.Insert(k, v)
		}
		dt := time.Since(t0)
		total += dt
		if err == nil {
			per[i%len(pts)] += dt
			calls[i%len(pts)]++
		}
	}
	c.solveUs = weightedMean(pts, per, calls) / 1e3
	rec.end(id)

	const hits = 1 << 20
	id = rec.begin("replay.queueing.TailCache", parent)
	cache := queueing.NewTailCache(1 << 16)
	keys := make([]queueing.TailKey, len(pts))
	for i, p := range pts {
		keys[i] = queueing.TailKey{Service: int32(i), Rate: math.Float64bits(p.rate), Perf: math.Float64bits(1)}
		cache.Insert(keys[i], tails[i])
	}
	c.cacheHitNs = perCall(hits, func(i int) { cache.Lookup(keys[i%len(keys)]) })
	rec.end(id)

	id = rec.begin("replay.monitor.Observe", parent)
	ctls := make([]*monitor.Controller, len(pts))
	for i, p := range pts {
		ctl, err := monitor.New(monitor.DefaultConfig(p.cfg.QoSTargetMs))
		if err != nil {
			return c, err
		}
		ctls[i] = ctl
	}
	c.observeNs = perCall(hits, func(i int) {
		ctls[i%len(ctls)].Observe(monitor.Observation{TailMs: tails[i%len(tails)]})
	})
	rec.end(id)

	id = rec.begin("replay.stats.Add", parent)
	h := stats.NewTailHistogram()
	c.addNs = perCall(hits, func(i int) { h.Add(tails[i%len(tails)]) })
	rec.end(id)

	id = rec.begin("replay.stats.Merge", parent)
	into := stats.NewTailHistogram()
	c.mergeUs = perCall(1<<14, func(int) { into.Merge(h) }) / 1e3
	rec.end(id)
	return c, nil
}

// weightedMean is the core-weighted mean per-call time in nanoseconds
// over the points that completed at least one call.
func weightedMean(pts []point, per []time.Duration, calls []int) float64 {
	var sum, weight float64
	for i, p := range pts {
		if calls[i] > 0 {
			sum += float64(p.weight) * float64(per[i].Nanoseconds()) / float64(calls[i])
			weight += float64(p.weight)
		}
	}
	if weight == 0 {
		return 0
	}
	return sum / weight
}

// perCall times n calls of f and returns nanoseconds per call.
func perCall(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}
