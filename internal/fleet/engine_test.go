package fleet

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"stretch/internal/loadgen"
	"stretch/internal/queueing"
	"stretch/internal/stats"
)

func TestEngineParse(t *testing.T) {
	cases := []struct {
		in   string
		want Engine
		ok   bool
	}{
		{"", EngineDiscrete, true},
		{"discrete", EngineDiscrete, true},
		{"fluid", 0, false},
		{"auto", EngineAuto, true},
		{"nope", 0, false},
		{"Auto", 0, false},
	}
	for _, tc := range cases {
		got, err := ParseEngine(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	for _, e := range []Engine{1, 99} {
		if err := e.Validate(); err == nil {
			t.Errorf("Engine(%d) validated", int(e))
		}
	}
}

// autoLoadConfig is lowLoadConfig at a diurnally varying moderate load,
// inside the solver envelope at every window, with controller mode
// switches along the horizon.
func autoLoadConfig() Config {
	cfg := lowLoadConfig()
	cfg.Traffic.Clients[0].Spec.Shape = loadgen.Diurnal{
		HourLoad: loadgen.WebSearchDay(), PeakRPS: 600 * 8, WindowsPerDay: 12,
	}
	cfg.Engine = EngineAuto
	return cfg
}

// TestFleetAutoIndependentOfWorkerCount: the analytic fast path is a pure
// function of (client, rate, perf) and runs on the engine goroutine, so
// sharding the discrete residue across goroutines must not perturb a
// single bit of the result. The wide fleet's peak windows, above the
// solver's utilization ceiling, put more than minShare items of residue
// on the workers, so several shares really run concurrently; under the
// -race CI job that catches any solve, or any other touch of the
// single-owner solve cache, from a residue worker.
func TestFleetAutoIndependentOfWorkerCount(t *testing.T) {
	wide := autoLoadConfig()
	wide.Servers = 3 * minShare / wide.CoresPerServer
	wide.Traffic.Clients[0].Spec.Shape = loadgen.Diurnal{ // peak ρ ≈ 0.93 per core
		HourLoad: loadgen.WebSearchDay(), PeakRPS: 800 * 3 * minShare, WindowsPerDay: 12,
	}
	wide.WindowRequests = 100
	residue := 0
	for name, cfg := range map[string]Config{"small": autoLoadConfig(), "wide": wide} {
		run := func(workers int) Result {
			t.Helper()
			cfg.Workers = workers
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		base := run(1)
		if base.AnalyticCoreWindows == 0 {
			t.Fatalf("%s: auto engine answered no windows analytically; the test is vacuous", name)
		}
		for _, o := range base.WindowTrace {
			residue = max(residue, o.ServingCores-o.CohortCores)
		}
		for _, workers := range []int{5, 16} {
			if got := run(workers); !reflect.DeepEqual(base, got) {
				t.Fatalf("%s: auto run with %d workers diverged from 1 worker", name, workers)
			}
		}
	}
	if residue <= 2*minShare {
		t.Fatalf("at most %d residue cores in a window; no window splits into three shares", residue)
	}
}

// TestFleetAutoClassifier locks the engines' rules. The discrete engine
// reports no analytic windows at all. Auto answers every window the
// solver accepts analytically: the cold-start window on every serving
// core, and a burst window like any other — the simulator runs it at one
// stationary rate, so once its boosted utilization is inside the solver
// envelope it is answered analytically.
func TestFleetAutoClassifier(t *testing.T) {
	disc, err := Run(lowLoadConfig())
	if err != nil {
		t.Fatal(err)
	}
	if disc.AnalyticCoreWindows != 0 || disc.Engine != EngineDiscrete {
		t.Fatalf("discrete run reported engine %v with %d analytic windows",
			disc.Engine, disc.AnalyticCoreWindows)
	}

	cfg := autoLoadConfig()
	auto, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Engine != EngineAuto {
		t.Fatalf("auto run reported engine %v", auto.Engine)
	}
	// Window 0 is a cold start on every core, inside the solver envelope:
	// every serving core is answered analytically.
	if w0 := auto.WindowTrace[0]; w0.ServingCores == 0 || w0.AnalyticCores != w0.ServingCores {
		t.Fatalf("window 0: %d of %d serving cores analytic, want all", w0.AnalyticCores, w0.ServingCores)
	}

	// A recurring burst whose boosted rate stays under the ceiling: its
	// burst windows take the analytic path.
	burst := autoLoadConfig()
	base := loadgen.Constant{Rate: 280 * 8}
	shape := loadgen.Burst{Base: base, Start: 2, Length: 2, Every: 4, Magnitude: 1.5}
	burst.Traffic.Clients[0].Spec.Shape = shape
	e, err := newEngine(burst)
	if err != nil {
		t.Fatal(err)
	}
	// Per-core boosted rate, at the B-mode perf factor: the most loaded
	// mode the controller can be in at this load.
	perCore := base.Rate * shape.Magnitude / float64(burst.Servers*burst.CoresPerServer)
	if u := queueing.Utilization(e.qcfgs[0], perCore, 1-burst.LSSlowdownB); u > queueing.AnalyticMaxUtilization {
		t.Fatalf("boosted utilization %.3f is outside the solver envelope; the test is vacuous", u)
	}
	bres, err := Run(burst)
	if err != nil {
		t.Fatal(err)
	}
	analyticBurst := 0
	for w, o := range bres.WindowTrace {
		if shape.RPS(w, burst.Traffic.Windows) > base.Rate {
			analyticBurst += o.AnalyticCores
		}
	}
	if analyticBurst == 0 {
		t.Fatal("no burst core-window was answered analytically")
	}
}

// TestEngineErrorIndependentOfWorkerCount: a residue core-window that
// fails stops the run with the lowest failing core's error, whichever
// share simulated it. Only the second client's cores fail their
// cold-start window here, and its first core sits inside a share, not at
// a share's start, at every worker count. The 385-core residue is
// divisible by no worker count and splits into one, two and three shares.
func TestEngineErrorIndependentOfWorkerCount(t *testing.T) {
	cfg := lowLoadConfig()
	cfg.Servers, cfg.CoresPerServer = 77, 5
	search := cfg.Traffic.Clients[0]
	search.Fraction = 0.4
	other := search
	other.Name, other.Fraction = "other", 0.6
	cfg.Traffic.Clients = []loadgen.Client{search, other}
	var msgs []string
	for _, workers := range []int{1, 2, 3} {
		cfg.Workers = workers
		e, err := newEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.qcfgs[1].Workers = 0 // Simulator.Reset rejects it
		err = e.runWindow(0)
		if err == nil {
			t.Fatalf("%d workers: the corrupt service config simulated", workers)
		}
		if n := len(e.worklist); n != 385 {
			t.Fatalf("%d residue items in window 0, want 385", n)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] || msgs[0] != msgs[2] || !strings.Contains(msgs[0], "core 154:") {
		t.Fatalf("errors at 1, 2 and 3 workers: %q; want the same, naming core 154", msgs)
	}
}

// TestEngineFootprint holds newEngine's per-core allocation to a budget of
// 140 B, measured as the slope of TotalAlloc between two fleet sizes on
// the auto engine and the histogram estimator (whose stores do not grow
// with cores). The engine's own per-core reserve is 91 B — controller 56,
// tail 8, worklist slot 24, client 2, last mode 1 — and the scheduler's
// per-core ownership and assignment arrays and the per-server tables take
// the rest (about 124 B in all). A change that adds per-core state raises
// the bound and says why.
func TestEngineFootprint(t *testing.T) {
	const budget = 140
	alloc := func(cores int) uint64 {
		cfg := equivConfig()
		cfg.Engine = EngineAuto
		cfg.TailEstimator = stats.EstimatorHistogram
		cfg.Workers = 1
		cfg.Servers = cores / cfg.CoresPerServer
		best := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := newEngine(cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	const lo, hi = 4096, 8192
	perCore := float64(alloc(hi)-alloc(lo)) / (hi - lo)
	t.Logf("newEngine allocates %.1f B per core", perCore)
	if perCore > budget {
		t.Fatalf("newEngine allocates %.1f B per core, budget %d B", perCore, budget)
	}
}
