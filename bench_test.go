// Benchmark harness: one benchmark per paper table/figure (regenerating the
// artifact at quick scale per iteration; run with -scale via stretchsim for
// the full versions), plus microbenchmarks of the simulator's hot paths.
//
//	go test -bench=. -benchmem
package stretch

import (
	"bytes"
	"testing"

	"stretch/internal/branch"
	"stretch/internal/cache"
	"stretch/internal/core"
	"stretch/internal/experiments"
	"stretch/internal/queueing"
	"stretch/internal/trace"
	"stretch/internal/workload"
)

// benchCtx's Lab shares measured cells across the benchmarks' first
// iterations, so each bench's first iteration measures only the cells no
// earlier bench measured; later iterations start from a fresh context.
var benchCtx = experiments.NewContext(experiments.Quick)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	n, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		ctx := benchCtx
		if i > 0 {
			// Re-run against a fresh context only when iterating, so
			// b.N>1 measures the uncached cost.
			ctx = experiments.NewContext(experiments.Quick)
		}
		if _, err := n.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// Tables.
func BenchmarkTable1QoSTargets(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkTable2ProcessorConfig(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3Workloads(b *testing.B)       { benchExperiment(b, "table3") }

// Characterisation figures (§II-III).
func BenchmarkFig1LatencyVsLoad(b *testing.B)      { benchExperiment(b, "fig1") }
func BenchmarkFig2SlackCurves(b *testing.B)        { benchExperiment(b, "fig2") }
func BenchmarkFig3ColocationSlowdown(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig4ResourceSharing(b *testing.B)    { benchExperiment(b, "fig4") }
func BenchmarkFig5ResourceSharingAll(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFig6ROBSensitivity(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7MLP(b *testing.B)                { benchExperiment(b, "fig7") }

// Evaluation figures (§VI).
func BenchmarkFig9SkewSweep(b *testing.B)           { benchExperiment(b, "fig9") }
func BenchmarkFig10BModeSpeedup(b *testing.B)       { benchExperiment(b, "fig10") }
func BenchmarkFig11DynamicSharing(b *testing.B)     { benchExperiment(b, "fig11") }
func BenchmarkFig12FetchThrottling(b *testing.B)    { benchExperiment(b, "fig12") }
func BenchmarkFig13SoftwareScheduling(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14CaseStudies(b *testing.B)        { benchExperiment(b, "fig14") }

// Design-choice ablations (DESIGN.md §6).
func BenchmarkAblationLSQCoupling(b *testing.B)      { benchExperiment(b, "ablation-lsq") }
func BenchmarkAblationMSHR(b *testing.B)             { benchExperiment(b, "ablation-mshr") }
func BenchmarkAblationPrefetcher(b *testing.B)       { benchExperiment(b, "ablation-prefetch") }
func BenchmarkAblationControllerSignal(b *testing.B) { benchExperiment(b, "ablation-signal") }
func BenchmarkAblationFlushCost(b *testing.B)        { benchExperiment(b, "ablation-flush") }

// --- Microbenchmarks of the simulator substrate ---

// BenchmarkCoreCycles measures raw simulation speed: simulated cycles per
// wall-clock op for a colocated pair.
func BenchmarkCoreCycles(b *testing.B) {
	lp, _ := workload.Lookup(workload.WebSearch)
	bp, _ := workload.Lookup(workload.Zeusmp)
	g0, _ := trace.NewGenerator(lp, 1)
	g1, _ := trace.NewGenerator(bp, 2)
	c, err := core.New(core.Default(), g0, g1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	c.RunCycles(int64(b.N))
}

// BenchmarkCoreInstructions measures simulated instruction throughput solo.
func BenchmarkCoreInstructions(b *testing.B) {
	p, _ := workload.Lookup(workload.Zeusmp)
	g, _ := trace.NewGenerator(p, 1)
	c, err := core.New(core.Solo(), g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	target := uint64(b.N)
	for c.Committed(0) < target {
		c.RunCycles(1024)
	}
}

// BenchmarkTraceGen measures µop generation throughput.
func BenchmarkTraceGen(b *testing.B) {
	p, _ := workload.Lookup(workload.WebSearch)
	g, _ := trace.NewGenerator(p, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkCacheAccess measures the L1 lookup path.
func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(cache.L1Config())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i) * 64)
	}
}

// BenchmarkPredictor measures predict+update throughput.
func BenchmarkPredictor(b *testing.B) {
	p := branch.New(branch.DefaultConfig(), true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint64(0x4000 + (i%512)*72)
		p.Predict(i&1, pc)
		p.Update(i&1, pc, i%3 == 0)
	}
}

// BenchmarkQueueing measures request-simulation throughput.
func BenchmarkQueueing(b *testing.B) {
	svc := workload.Services()[workload.WebSearch]
	cfg := queueing.ForService(svc)
	b.ResetTimer()
	if _, err := queueing.Simulate(cfg, 400, b.N+10, 1, 1); err != nil {
		b.Fatal(err)
	}
}

// benchFleetConfig is the shared fleet-scale benchmark shape: servers×16
// controller-governed SMT cores draining a diurnal web-search day.
func benchFleetConfig(servers int, est TailEstimator) FleetConfig {
	nCores := servers * 16
	return FleetConfig{
		Servers: servers, CoresPerServer: 16,
		Traffic: Traffic{
			Windows: 6, WindowSec: 4 * 3600,
			Clients: []TrafficClient{{
				Name: "search", Service: WebSearch, Fraction: 1,
				Spec: ArrivalSpec{Shape: Diurnal{
					HourLoad: WebSearchDay(), PeakRPS: float64(nCores) * 700,
				}, Poisson: true},
			}},
		},
		BatchSpeedupB: 0.13, LSSlowdownB: 0.07,
		WindowRequests: 120, Seed: 1,
		TailEstimator: est,
	}
}

func benchFleet(b *testing.B, cfg FleetConfig) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var requests float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := Fleet(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Core-windows the analytic fast path answered simulate no requests.
		simCW := float64(res.Cores)*float64(res.Windows) - float64(res.AnalyticCoreWindows)
		requests += simCW * float64(cfg.WindowRequests)
	}
	b.ReportMetric(requests/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkFleet1kCores is the fleet-scale perf trajectory under the
// default (histogram) tail estimator on the discrete engine, which builds
// no solve cache: ~1k cores, one diurnal day. The persistent worker pool
// (one goroutine set per run instead of workers×windows spawns behind the
// window barrier) is what dropped this case from 236 to ~225 allocs/op.
func BenchmarkFleet1kCores(b *testing.B) {
	benchFleet(b, benchFleetConfig(63, EstimatorDefault)) // 1008 cores
}

// BenchmarkFleetExact1kCores guards the exact-estimator path (sorted
// samples at every level), which small accuracy-sensitive runs still use.
func BenchmarkFleetExact1kCores(b *testing.B) {
	benchFleet(b, benchFleetConfig(63, EstimatorExact))
}

// BenchmarkFleetCalibrated1kCores guards the acceptance bound of the
// calibration refactor: per-client per-mode deltas from the committed
// cycle-level table must stay within noise of the uniform-scalar run,
// because the table resolves to flat per-client arrays before the first
// window and nothing touches it on the per-request path.
func BenchmarkFleetCalibrated1kCores(b *testing.B) {
	table, err := DefaultCalibration()
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchFleetConfig(63, EstimatorDefault)
	cfg.Calibration = table
	cfg.Traffic.Clients[0].Batch = "zeusmp"
	benchFleet(b, cfg)
}

// BenchmarkFleetCohort1kCores measures the cohort-coalesced path at the
// 1k scale under the auto engine: steady windows answered once per cohort
// span (one analytic solve, one bulk histogram deposit, one controller
// step copied to every member) with the discrete residue on the
// worker pool. Its delta against BenchmarkFleet1kCores is the coalescing
// win on the analytic fraction of the horizon.
func BenchmarkFleetCohort1kCores(b *testing.B) {
	cfg := benchFleetConfig(63, EstimatorDefault)
	cfg.Engine = EngineAuto
	benchFleet(b, cfg)
}

// BenchmarkFleet10kCores is the scale target the mergeable histograms
// enable: 10000 cores with memory independent of the request count.
func BenchmarkFleet10kCores(b *testing.B) {
	benchFleet(b, benchFleetConfig(625, EstimatorDefault)) // 10000 cores
}

// BenchmarkFleet100kCores runs the same diurnal day at 100k cores under
// the auto engine: every window the solver accepts answered by the
// analytic fast path, its refusals (excursions above the solver's
// utilization ceiling) on the discrete simulator.
func BenchmarkFleet100kCores(b *testing.B) {
	cfg := benchFleetConfig(6250, EstimatorDefault) // 100000 cores
	cfg.Engine = EngineAuto
	benchFleet(b, cfg)
}

// BenchmarkFleet1MCores is the analytic fast path's tentpole scale target:
// a 1M-core × 24h fleet day under the auto engine in under a minute.
func BenchmarkFleet1MCores(b *testing.B) {
	cfg := benchFleetConfig(62500, EstimatorDefault) // 1000000 cores
	cfg.Engine = EngineAuto
	benchFleet(b, cfg)
}

// BenchmarkFleetAutoscale1kCores guards the autoscaling layer's overhead:
// the same 1008-core day with the util policy parking and unparking whole
// servers between windows. The per-window scaling decision is O(servers)
// bookkeeping, so the delta against BenchmarkFleet1kCores should be the
// work *saved* by the parked windows, never added coordination cost.
func BenchmarkFleetAutoscale1kCores(b *testing.B) {
	cfg := benchFleetConfig(63, EstimatorDefault)
	cfg.Autoscale = Autoscale{Policy: AutoscaleUtil}
	benchFleet(b, cfg)
}

// BenchmarkFleetDecisionTrace1kCores guards the decision-tracing
// acceptance bound: the same 1008-core day with a summary trace recorded
// per window. Record building is O(clients) bookkeeping behind the window
// barrier, so the delta against BenchmarkFleet1kCores must stay within
// noise (<2%) — and with tracing off the stepper's only extra work is one
// level check per window.
func BenchmarkFleetDecisionTrace1kCores(b *testing.B) {
	cfg := benchFleetConfig(63, EstimatorDefault)
	cfg.DecisionTrace = DecisionTraceSummary
	benchFleet(b, cfg)
}

// BenchmarkPlanCapacity guards the capacity planner end to end: an
// in-memory recorded trace, bisected over a 16-server range. Each probe is
// a full fleet run, so this is the planner's real cost profile (dominated
// by the probe runs, not the search bookkeeping).
func BenchmarkPlanCapacity(b *testing.B) {
	cfg := benchFleetConfig(16, EstimatorDefault)
	tr, err := SynthTrace(TraceSynthSpec{Traffic: cfg.Traffic, Seed: cfg.Seed})
	if err != nil {
		b.Fatal(err)
	}
	traffic, err := tr.Traffic()
	if err != nil {
		b.Fatal(err)
	}
	cfg.Traffic = traffic
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		plan, err := PlanCapacity(CapacitySpec{Config: cfg, MaxViolationWindows: 40})
		if err != nil {
			b.Fatal(err)
		}
		if len(plan.Probes) == 0 {
			b.Fatal("planner probed nothing")
		}
	}
}

// BenchmarkFleetTraceReplay1kCores guards the trace-replay path at fleet
// scale: the 1008-core benchmark traffic is synthesised into a trace file
// once (encode + strict re-parse outside the timer), then every iteration
// replays the parsed trace. The delta against BenchmarkFleet1kCores is
// the cost of consuming recorded rates instead of drawing them — which
// should be nil, since replayed timelines skip the per-window draws.
func BenchmarkFleetTraceReplay1kCores(b *testing.B) {
	cfg := benchFleetConfig(63, EstimatorDefault)
	tr, err := SynthTrace(TraceSynthSpec{Traffic: cfg.Traffic, Seed: cfg.Seed})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	parsed, err := ParseTrace(&buf)
	if err != nil {
		b.Fatal(err)
	}
	traffic, err := parsed.Traffic()
	if err != nil {
		b.Fatal(err)
	}
	cfg.Traffic = traffic
	benchFleet(b, cfg)
}
