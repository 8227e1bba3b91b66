package queueing

import (
	"fmt"
	"math"
	"testing"

	"stretch/internal/rng"
	"stretch/internal/stats"
	"stretch/internal/workload"
)

func cfg() Config {
	return Config{
		Workers:       8,
		MeanServiceMs: 5,
		ServiceCV:     1.0,
		BurstProb:     0.1,
		BurstLen:      3,
		QoSQuantile:   0.99,
		QoSTargetMs:   100,
	}
}

func TestValidate(t *testing.T) {
	good := cfg()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Workers = 0 },
		func(c *Config) { c.MeanServiceMs = 0 },
		func(c *Config) { c.MeanServiceMs = math.NaN() },
		func(c *Config) { c.ServiceCV = -1 },
		func(c *Config) { c.ServiceCV = math.Inf(1) },
		func(c *Config) { c.BurstProb = -0.1 },
		func(c *Config) { c.BurstProb = 1.5 },
		func(c *Config) { c.BurstLen = -1 },
		func(c *Config) { c.QoSQuantile = 1.2 },
		func(c *Config) { c.QoSQuantile = math.NaN() },
		func(c *Config) { c.QoSTargetMs = 0 },
	}
	for i, m := range bad {
		c := cfg()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSimulateArgumentChecks(t *testing.T) {
	if _, err := Simulate(cfg(), 0, 1000, 1, 1); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := Simulate(cfg(), 100, 0, 1, 1); err == nil {
		t.Fatal("zero requests accepted")
	}
	if _, err := Simulate(cfg(), 100, 1000, 0, 1); err == nil {
		t.Fatal("zero perf accepted")
	}
	if _, err := Simulate(cfg(), 100, 1000, MaxPerfFactor+0.5, 1); err == nil {
		t.Fatal("perf > MaxPerfFactor accepted")
	}
	// A modest super-unity factor is legal: a calibrated Q-mode core runs
	// the service faster than the equal-partitioning baseline.
	fast, err := Simulate(cfg(), 100, 1000, 1.1, 1)
	if err != nil {
		t.Fatalf("perf 1.1 rejected: %v", err)
	}
	base, err := Simulate(cfg(), 100, 1000, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fast.MeanMs >= base.MeanMs {
		t.Fatalf("perf 1.1 mean %v not below perf 1 mean %v", fast.MeanMs, base.MeanMs)
	}
}

func TestLatencyOrderingAndGrowth(t *testing.T) {
	c := cfg()
	low, err := Simulate(c, 100, 30000, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !(low.MeanMs <= low.P95Ms && low.P95Ms <= low.P99Ms) {
		t.Fatalf("percentile ordering violated: %+v", low)
	}
	if low.MeanMs < c.MeanServiceMs*0.8 {
		t.Fatalf("latency below service time: %v", low.MeanMs)
	}
	// Near saturation (8 workers × 200/s = 1600/s capacity).
	high, err := Simulate(c, 1500, 30000, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if high.P99Ms <= low.P99Ms*1.5 {
		t.Fatalf("tail did not grow with load: %v -> %v", low.P99Ms, high.P99Ms)
	}
	// The tail must grow by more milliseconds than the mean (queueing
	// delay dominates the tail, Fig. 1).
	if high.P99Ms-low.P99Ms <= high.MeanMs-low.MeanMs {
		t.Fatal("p99 should grow by more than the mean with load")
	}
}

func TestPerfFactorStretchesService(t *testing.T) {
	full, err := Simulate(cfg(), 100, 30000, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	half, err := Simulate(cfg(), 100, 30000, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	ratio := half.MeanMs / full.MeanMs
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("halving performance scaled mean latency by %v, want ~2", ratio)
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := Simulate(cfg(), 400, 20000, 1, 99)
	b, _ := Simulate(cfg(), 400, 20000, 1, 99)
	if a != b {
		t.Fatal("same-seed simulations diverged")
	}
	c, _ := Simulate(cfg(), 400, 20000, 1, 100)
	if a == c {
		t.Fatal("different seeds produced identical results")
	}
}

func TestPeakLoadBracketsQoS(t *testing.T) {
	c := cfg()
	peak, err := PeakLoad(c, 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if peak <= 0 {
		t.Fatal("non-positive peak")
	}
	at, err := Simulate(c, peak*0.95, 20000, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !at.MeetsQoS {
		t.Fatalf("95%% of peak violates QoS: p-tail %vms", at.QoSMs)
	}
	over, err := Simulate(c, peak*1.3, 20000, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if over.MeetsQoS {
		t.Fatal("30% beyond peak still meets QoS — peak search too conservative")
	}
}

// TestPeakLoadBelowSaturation: no catalogue service's peak reaches the
// pool's burst-aware saturation rate, at any seed or budget the fleet and
// the figures use. Near saturation a finite run can meet the target by
// luck of its realisation; at or above it the queue grows without bound,
// so such a rate is not sustainable however the run went.
func TestPeakLoadBelowSaturation(t *testing.T) {
	svcs := workload.Services()
	for _, name := range workload.ServiceNames() {
		c := ForService(svcs[name])
		sat := 1 / Utilization(c, 1, 1)
		for _, n := range []int{2000, 4000} {
			for seed := uint64(1); seed <= 40; seed++ {
				p, err := PeakLoad(c, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				if p >= sat {
					t.Errorf("%s n=%d seed %d: peak %v at or above the burst-aware saturation %v", name, n, seed, p, sat)
				}
			}
		}
	}
}

// TestSimulatorMatchesSimulate pins the reuse contract the fleet hot loop
// relies on: a Simulator re-used across runs — with other configurations
// and rates interleaved — must produce results bit-identical to the
// one-shot package function for every (config, args, seed).
func TestSimulatorMatchesSimulate(t *testing.T) {
	a := cfg()
	b := Config{
		Workers: 64, MeanServiceMs: 2, ServiceCV: 0.4,
		BurstProb: 0.02, BurstLen: 10, QoSQuantile: 0.95, QoSTargetMs: 30,
	}
	sim, err := NewSimulator(a)
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		cfg  Config
		rate float64
		n    int
		perf float64
		seed uint64
	}{
		{a, 400, 5000, 1, 1},
		{b, 20000, 3000, 0.8, 2},
		{a, 1500, 2000, 0.6, 3},
		{a, 400, 5000, 1, 1}, // repeat of the first: must still match
		{b, 5000, 800, 1, 99},
	}
	for i, r := range runs {
		if err := sim.Reset(r.cfg); err != nil {
			t.Fatal(err)
		}
		got, err := sim.Simulate(r.rate, r.n, r.perf, r.seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Simulate(r.cfg, r.rate, r.n, r.perf, r.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("run %d diverged from one-shot Simulate:\n%+v\nvs\n%+v", i, got, want)
		}
	}
	// The reusable path must reject the same bad inputs.
	if err := sim.Reset(Config{}); err == nil {
		t.Fatal("Reset accepted an invalid config")
	}
	if _, err := sim.Simulate(0, 100, 1, 1); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := NewSimulator(Config{}); err == nil {
		t.Fatal("NewSimulator accepted an invalid config")
	}
	var unconfigured Simulator
	if _, err := unconfigured.Simulate(100, 1000, 1, 1); err == nil {
		t.Fatal("zero-value Simulator simulated without a Reset")
	}
}

// TestQoSMatchesSimulate: QoS is Simulate's QoSMs bit for bit over random
// configurations, rates from idle to overload, perf factors and budgets
// around the warm-up boundary, under both estimators, on one Simulator
// reused across all of them.
func TestQoSMatchesSimulate(t *testing.T) {
	src := rng.New(11)
	var sim Simulator
	for i := 0; i < 400; i++ {
		c := Config{
			Workers: 1 + src.Intn(40), MeanServiceMs: 0.2 + 10*src.Float64(),
			ServiceCV: 1.5 * src.Float64(), BurstProb: 0.2 * src.Float64(), BurstLen: float64(src.Intn(20)),
			QoSQuantile: []float64{0.5, 0.9, 0.95, 0.99, 0.999}[src.Intn(5)], QoSTargetMs: 10,
			Estimator: stats.TailEstimator(src.Intn(3)),
		}
		if err := sim.Reset(c); err != nil {
			t.Fatal(err)
		}
		rate := (0.05 + 1.2*src.Float64()) * float64(c.Workers) * 1000 / c.MeanServiceMs
		n := 1 + src.Intn(1200)
		perf := 0.3 + src.Float64()
		seed := src.Uint64()
		qos, err := sim.QoS(rate, n, perf, seed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.Simulate(rate, n, perf, seed)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(qos) != math.Float64bits(r.QoSMs) {
			t.Fatalf("config %d %+v rate %v n %d perf %v: QoS %v, Simulate %v", i, c, rate, n, perf, qos, r.QoSMs)
		}
	}
	var unconfigured Simulator
	if _, err := unconfigured.QoS(100, 1000, 1, 1); err == nil {
		t.Fatal("zero-value Simulator answered QoS without a Reset")
	}
}

// BenchmarkSimulate exercises the hot loop at several worker-pool widths;
// the Workers=64 case is the regression guard for the former
// O(requests × workers) queue-depth rescan, and the reused-Simulator cases
// are the allocation guard for the fleet engine's per-window path: each
// warms its Simulator before the timer starts, so allocs/op is the steady
// state even at -benchtime 3x. The fleet-window cases are the shape the
// fleet engine runs per core-window (data-serving's pool, a 400-request
// budget, the histogram estimator, a reused Simulator) and report ns per
// simulated request; one op is a batch of windows, long enough to time
// at the CI gate's 3x. The large-window cases run the same pool for
// 100,000 requests in one op, a long stationary run. */reused
// runs the full Simulate, */qos the QoS-only call the engine makes.
func BenchmarkSimulate(b *testing.B) {
	for _, fw := range []struct {
		name string
		run  func(s *Simulator, rate float64, n int, perf float64, seed uint64) error
	}{
		{"reused", func(s *Simulator, rate float64, n int, perf float64, seed uint64) error {
			_, err := s.Simulate(rate, n, perf, seed)
			return err
		}},
		{"qos", func(s *Simulator, rate float64, n int, perf float64, seed uint64) error {
			_, err := s.QoS(rate, n, perf, seed)
			return err
		}},
	} {
		for _, bc := range []struct {
			name          string
			nReq, windows int
		}{{"fleet-window", 400, 64}, {"large-window", 100000, 1}} {
			run, nReq, windows := fw.run, bc.nReq, bc.windows
			b.Run(bc.name+"/"+fw.name, func(b *testing.B) {
				c := Config{
					Workers: 15, MeanServiceMs: 3.2, ServiceCV: 0.4,
					BurstProb: 0.005, BurstLen: 18, QoSQuantile: 0.99, QoSTargetMs: 20,
					Estimator: stats.EstimatorHistogram,
				}
				rate := float64(c.Workers) * 1000 / c.MeanServiceMs * 0.6
				sim, err := NewSimulator(c)
				if err != nil {
					b.Fatal(err)
				}
				if err := run(sim, rate, nReq, 0.93, 0); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for w := 0; w < windows; w++ {
						if err := run(sim, rate, nReq, 0.93, uint64(i*windows+w)+1); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer() // ReportMetric allocates; keep it out of B/op
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*windows*nReq), "ns/req")
			})
		}
	}
	for _, workers := range []int{8, 64} {
		c := Config{
			Workers: workers, MeanServiceMs: 5, ServiceCV: 1.0,
			BurstProb: 0.1, BurstLen: 3, QoSQuantile: 0.99, QoSTargetMs: 100,
		}
		rate := float64(workers) * 1000 / c.MeanServiceMs * 0.8
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(c, rate, 10000, 1, uint64(i)+1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("workers=%d/reused", workers), func(b *testing.B) {
			sim, err := NewSimulator(c)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Simulate(rate, 10000, 1, 0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sim.Reset(c); err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Simulate(rate, 10000, 1, uint64(i)+1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestLoadCurveShape(t *testing.T) {
	c := cfg()
	peak, err := PeakLoad(c, 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := LoadCurve(c, peak, []float64{0.2, 0.5, 0.8, 1.0}, 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].P99Ms < rs[i-1].P99Ms*0.8 {
			t.Fatalf("p99 fell substantially with load: %v -> %v", rs[i-1].P99Ms, rs[i].P99Ms)
		}
	}
	if _, err := LoadCurve(c, peak, []float64{0}, 1000, 5); err == nil {
		t.Fatal("zero load fraction accepted")
	}
}

// TestHistogramEstimatorTracksExact locks the estimator contract: switching
// Config.Estimator never perturbs the simulated event sequence (the exact
// per-request mean is bit-identical) and quantile estimates stay within the
// histogram's bucket resolution of the exact sorted-sample quantiles.
func TestHistogramEstimatorTracksExact(t *testing.T) {
	exact := cfg()
	exact.Estimator = stats.EstimatorExact
	hist := cfg()
	hist.Estimator = stats.EstimatorHistogram
	for _, rate := range []float64{200, 800, 1400} {
		re, err := Simulate(exact, rate, 20000, 1, 11)
		if err != nil {
			t.Fatal(err)
		}
		rh, err := Simulate(hist, rate, 20000, 1, 11)
		if err != nil {
			t.Fatal(err)
		}
		if re.MeanMs != rh.MeanMs || re.Requests != rh.Requests {
			t.Fatalf("rate %v: estimator perturbed the simulation: %+v vs %+v", rate, re, rh)
		}
		tol := 2 * stats.NewTailHistogram().Resolution()
		for _, pair := range [][2]float64{{re.P95Ms, rh.P95Ms}, {re.P99Ms, rh.P99Ms}, {re.QoSMs, rh.QoSMs}} {
			if rel := math.Abs(pair[1]-pair[0]) / pair[0]; rel > tol {
				t.Fatalf("rate %v: histogram quantile %v vs exact %v (relative error %.3f > %.3f)",
					rate, pair[1], pair[0], rel, tol)
			}
		}
	}
}

// TestHistogramEstimatorDeterministicReuse checks a reused Simulator in
// histogram mode is bit-identical to a one-shot run, as the fleet hot loop
// requires.
func TestHistogramEstimatorDeterministicReuse(t *testing.T) {
	c := cfg()
	c.Estimator = stats.EstimatorHistogram
	sim, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := sim.Simulate(900, 5000, 0.9, 77)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Simulate(c, 900, 5000, 0.9, 77)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("reused simulator drifted on pass %d: %+v vs %+v", i, got, want)
		}
	}
}

func TestValidateRejectsUnknownEstimator(t *testing.T) {
	c := cfg()
	c.Estimator = stats.TailEstimator(99)
	if err := c.Validate(); err == nil {
		t.Fatal("unknown estimator accepted")
	}
}
