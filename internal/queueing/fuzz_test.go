package queueing

import (
	"math"
	"testing"
)

// FuzzSimulate checks the Validate→Simulate contract: a configuration the
// validator accepts, driven with in-contract arguments, must simulate
// without error or panic, measure the expected request count, and give
// QoS the same bits as Simulate's QoSMs. Fuzzed
// magnitudes are bounded so a single case stays fast; NaN/Inf survive
// math.Mod (as NaN) and exercise the rejection paths.
func FuzzSimulate(f *testing.F) {
	f.Add(8, 5.0, 1.0, 0.1, 3.0, 0.99, 100.0, 400.0, 2000, 1.0, uint64(1))
	f.Add(64, 3.2, 1.4, 0.03, 10.0, 0.99, 20.0, 9000.0, 1500, 0.85, uint64(2))
	f.Add(1, 170.0, 0.9, 0.0, 0.0, 0.95, 1000.0, 4.0, 800, 0.5, uint64(3))
	f.Add(0, -1.0, math.NaN(), 2.0, -3.0, 1.5, 0.0, 0.0, 0, 0.0, uint64(4))
	f.Fuzz(func(t *testing.T, workers int, mean, cv, bp, bl, q, target, rate float64, nReq int, perf float64, seed uint64) {
		workers %= 256
		nReq %= 3000
		cfg := Config{
			Workers:       workers,
			MeanServiceMs: math.Mod(mean, 1e6),
			ServiceCV:     math.Mod(cv, 50),
			BurstProb:     bp,
			BurstLen:      math.Mod(bl, 100),
			QoSQuantile:   q,
			QoSTargetMs:   math.Mod(target, 1e6),
		}
		if cfg.Validate() != nil {
			return
		}
		rate = math.Mod(rate, 1e7)
		if rate <= 0 || nReq <= 0 || perf <= 0 || perf > MaxPerfFactor || math.IsNaN(rate) || math.IsNaN(perf) {
			// Out-of-contract arguments must be rejected, not crash.
			if _, err := Simulate(cfg, rate, nReq, perf, seed); err == nil {
				t.Fatalf("accepted rate=%v nReq=%d perf=%v", rate, nReq, perf)
			}
			return
		}
		r, err := Simulate(cfg, rate, nReq, perf, seed)
		if err != nil {
			t.Fatalf("validated config failed: %v (cfg=%+v rate=%v nReq=%d perf=%v)", err, cfg, rate, nReq, perf)
		}
		if want := nReq - nReq/10; r.Requests != want {
			t.Fatalf("measured %d of %d requests", r.Requests, want)
		}
		for _, v := range []float64{r.MeanMs, r.P95Ms, r.P99Ms, r.QoSMs} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("non-finite latency in %+v", r)
			}
		}
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if qos, err := sim.QoS(rate, nReq, perf, seed); err != nil || math.Float64bits(qos) != math.Float64bits(r.QoSMs) {
			t.Fatalf("QoS = %v, %v; Simulate's QoSMs %v", qos, err, r.QoSMs)
		}
	})
}
