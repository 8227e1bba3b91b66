package fleet

import (
	"reflect"
	"testing"

	"stretch/internal/loadgen"
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

// autoLoadConfig is lowLoadConfig at a diurnally varying moderate load:
// steady enough that the auto classifier answers most post-warm-up
// windows analytically, with a controller mode switch early in the
// horizon exercising the discrete fallback.
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
// single bit of the result. The wide fleet's cold-start window puts
// several claimChunk blocks of residue on the pool, so workers really run
// concurrently; under the -race CI job that catches any solve, or any
// other touch of the single-owner solve cache, from a pool worker.
func TestFleetAutoIndependentOfWorkerCount(t *testing.T) {
	wide := autoLoadConfig()
	wide.Servers = 3 * claimChunk / wide.CoresPerServer
	wide.Traffic.Clients[0].Spec.Shape = loadgen.Diurnal{ // same per-core load
		HourLoad: loadgen.WebSearchDay(), PeakRPS: 600 * 3 * claimChunk, WindowsPerDay: 12,
	}
	wide.WindowRequests = 100
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
		for _, workers := range []int{5, 16} {
			if got := run(workers); !reflect.DeepEqual(base, got) {
				t.Fatalf("%s: auto run with %d workers diverged from 1 worker", name, workers)
			}
		}
	}
}

// TestFleetAutoClassifier locks the classifier's structural rules: the
// cold-start window stays discrete, unsteady (burst) windows stay
// discrete, and the discrete engine reports no analytic windows at all.
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
	// Window 0 is a cold start on every core: at most windows-1 of each
	// core's windows can be analytic.
	if max := auto.Cores * (cfg.Traffic.Windows - 1); auto.AnalyticCoreWindows > max {
		t.Fatalf("%d analytic core-windows exceeds the %d cold-start ceiling", auto.AnalyticCoreWindows, max)
	}

	// A recurring burst keeps its windows discrete even under solver-eligible
	// load: bursty windows must never be answered analytically.
	burst := autoLoadConfig()
	burst.Traffic.Clients[0].Spec.Shape = loadgen.Burst{
		Base:  loadgen.Constant{Rate: 280 * 8},
		Start: 2, Length: 2, Every: 4, Magnitude: 1.5,
	}
	bres, err := Run(burst)
	if err != nil {
		t.Fatal(err)
	}
	unsteady := 0
	for w := 0; w < burst.Traffic.Windows; w++ {
		if loadgen.ShapeUnsteady(burst.Traffic.Clients[0].Spec.Shape, w, burst.Traffic.Windows) {
			unsteady++
		}
	}
	if unsteady == 0 {
		t.Fatal("burst shape marked no windows unsteady")
	}
	if max := auto.Cores * (burst.Traffic.Windows - unsteady - 1); bres.AnalyticCoreWindows > max {
		t.Fatalf("%d analytic core-windows exceeds the %d steady-window ceiling", bres.AnalyticCoreWindows, max)
	}
}
