package fleet

import (
	"math"
	"reflect"
	"testing"

	"stretch/internal/calib"
	"stretch/internal/core"
	"stretch/internal/loadgen"
	"stretch/internal/sampling"
	"stretch/internal/stats"
	"stretch/internal/workload"
)

// syntheticTable fabricates a calibration table covering the given pairs
// without running the cycle-level model; tests use it to pin the engine's
// lookup arithmetic exactly.
func syntheticTable(cells map[string]map[string]calib.PairPerf) *calib.Table {
	services := make([]string, 0, len(cells))
	batchSet := map[string]bool{}
	for s, row := range cells {
		services = append(services, s)
		for b := range row {
			batchSet[b] = true
		}
	}
	batches := make([]string, 0, len(batchSet))
	for b := range batchSet {
		batches = append(batches, b)
	}
	in := calib.Inputs{
		Services: services, Batches: batches,
		BSkew: calib.DefaultBSkew, QSkew: calib.DefaultQSkew,
		Spec: sampling.Quick(),
	}
	hash, err := in.Fingerprint()
	if err != nil {
		panic(err)
	}
	return &calib.Table{Hash: hash, Inputs: in, Pairs: cells}
}

// TestUniformFallbackEquivalence is the refactor's safety proof: a
// calibration table whose cells encode exactly the old uniform scalars —
// B-mode {LSSlowdownB, BatchSpeedupB}, Q-mode {0, −qModeBatchCost} — must
// reproduce the scalar run's Result bit-for-bit (modulo the fields that
// echo which source was used), because the engine's per-mode arrays resolve
// to the same floats either way.
func TestUniformFallbackEquivalence(t *testing.T) {
	const bGain, lsSlow = 0.13, 0.07
	base := lowLoadConfig()
	base.BatchSpeedupB, base.LSSlowdownB = bGain, lsSlow

	calibrated := base
	calibrated.Calibration = syntheticTable(map[string]map[string]calib.PairPerf{
		workload.WebSearch: {DefaultBatchPairing: {
			B: calib.Cell{LSSlowdown: lsSlow, BatchSpeedup: bGain},
			Q: calib.Cell{LSSlowdown: 0, BatchSpeedup: -qModeBatchCost},
		}},
	})

	r1, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(calibrated)
	if err != nil {
		t.Fatal(err)
	}
	if r2.CalibrationHash == "" {
		t.Fatal("calibrated run did not echo its table hash")
	}
	if r1.CalibrationHash != "" {
		t.Fatal("uniform run echoed a table hash")
	}
	r2.CalibrationHash = ""
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("equivalent table diverged from uniform scalars:\n%+v\nvs\n%+v", r1, r2)
	}
}

// TestCalibratedDeltasAreClientSpecific: two clients of the same service
// with different batch pairings must earn different batch credit per
// engaged core-window — the whole point of threading the table through.
func TestCalibratedDeltasAreClientSpecific(t *testing.T) {
	table := syntheticTable(map[string]map[string]calib.PairPerf{
		workload.WebSearch: {
			workload.Zeusmp: {
				B: calib.Cell{LSSlowdown: 0.07, BatchSpeedup: 0.30},
				Q: calib.Cell{LSSlowdown: -0.02, BatchSpeedup: -0.20},
			},
			"povray": {
				B: calib.Cell{LSSlowdown: 0.04, BatchSpeedup: 0.02},
				Q: calib.Cell{LSSlowdown: -0.01, BatchSpeedup: -0.05},
			},
		},
	})
	cfg := Config{
		Servers: 2, CoresPerServer: 4,
		Traffic: loadgen.Traffic{
			Windows: 12, WindowSec: 300,
			Clients: []loadgen.Client{
				{Name: "mlp", Service: workload.WebSearch, Batch: workload.Zeusmp, Fraction: 0.5,
					Spec: loadgen.Spec{Shape: loadgen.Constant{Rate: 280 * 4}, Poisson: true}},
				{Name: "compute", Service: workload.WebSearch, Batch: "povray", Fraction: 0.5,
					Spec: loadgen.Spec{Shape: loadgen.Constant{Rate: 280 * 4}, Poisson: true}},
			},
		},
		Calibration:    table,
		WindowRequests: 300, Seed: 1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var perHour [2]float64
	for i, cm := range res.Clients {
		if cm.EngagedCoreHours == 0 {
			t.Fatalf("client %s never engaged B-mode at idle load", cm.Client)
		}
		perHour[i] = cm.BatchCoreHoursGained / cm.EngagedCoreHours
	}
	// The zeusmp pairing's calibrated speedup is 15× povray's; the
	// per-engaged-hour gain must reflect that ordering decisively.
	if perHour[0] <= 2*perHour[1] {
		t.Fatalf("per-engaged-hour gains %.3f vs %.3f do not reflect the pairing deltas", perHour[0], perHour[1])
	}
	if res.Clients[0].Batch != workload.Zeusmp || res.Clients[1].Batch != "povray" {
		t.Fatalf("resolved pairings %q, %q", res.Clients[0].Batch, res.Clients[1].Batch)
	}
	// Per-client gains must sum to the fleet aggregate (same windowHours
	// quantisation, so exact within float tolerance).
	sum := res.Clients[0].BatchCoreHoursGained + res.Clients[1].BatchCoreHoursGained
	if d := math.Abs(sum - res.BatchCoreHoursGained); d > 1e-9*math.Abs(res.BatchCoreHoursGained) {
		t.Fatalf("per-client gains sum to %v, fleet reports %v", sum, res.BatchCoreHoursGained)
	}
	// Per-window observation carries the calibrated credit: once engaged,
	// the mlp client's mean BatchRel must exceed the compute client's.
	last := res.WindowTrace[len(res.WindowTrace)-1]
	if last.Clients[0].BatchRel <= last.Clients[1].BatchRel {
		t.Fatalf("window BatchRel %.3f vs %.3f does not reflect pairings",
			last.Clients[0].BatchRel, last.Clients[1].BatchRel)
	}
}

// TestCalibrationValidation: a calibrated fleet must reject clients the
// table does not cover, unknown batch pairings, and unusable cells.
func TestCalibrationValidation(t *testing.T) {
	table := syntheticTable(map[string]map[string]calib.PairPerf{
		workload.WebSearch: {workload.Zeusmp: {
			B: calib.Cell{LSSlowdown: 0.07, BatchSpeedup: 0.30},
		}},
	})
	base := lowLoadConfig()
	base.Calibration = table

	// Covered pairing (empty Batch resolves to zeusmp): accepted.
	if err := base.Validate(); err != nil {
		t.Fatalf("covered pairing rejected: %v", err)
	}
	// Uncovered batch pairing: rejected.
	cfg := base
	cfg.Traffic.Clients = append([]loadgen.Client(nil), base.Traffic.Clients...)
	cfg.Traffic.Clients[0].Batch = "povray"
	if err := cfg.Validate(); err == nil {
		t.Fatal("uncovered pairing accepted")
	}
	// Unknown batch workload: rejected even without calibration.
	cfg.Traffic.Clients[0].Batch = "nope"
	cfg.Calibration = nil
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown batch workload accepted")
	}
	// A cell implying non-positive LS performance: rejected.
	badTable := syntheticTable(map[string]map[string]calib.PairPerf{
		workload.WebSearch: {workload.Zeusmp: {
			B: calib.Cell{LSSlowdown: 1.2, BatchSpeedup: 0.30},
		}},
	})
	cfg = base
	cfg.Calibration = badTable
	if err := cfg.Validate(); err == nil {
		t.Fatal("LS slowdown >= 1 accepted")
	}
}

// TestCalibratedRunUsesDefaultTable smoke-tests the committed default
// table end-to-end: a calibrated fleet run over it must succeed, engage
// B-mode at idle load, and credit batch work in the pair's own units.
func TestCalibratedRunUsesDefaultTable(t *testing.T) {
	table, err := calib.Default()
	if err != nil {
		t.Fatal(err)
	}
	cfg := lowLoadConfig()
	cfg.Calibration = table
	cfg.Traffic.Clients[0].Batch = workload.Zeusmp
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CalibrationHash != table.Hash {
		t.Fatalf("run echoed hash %q, want %q", res.CalibrationHash, table.Hash)
	}
	cell, ok := table.Lookup(workload.WebSearch, workload.Zeusmp, core.ModeB)
	if !ok {
		t.Fatal("default table missing web-search × zeusmp")
	}
	if res.EngagedCoreHours == 0 || res.BatchCoreHoursGained <= 0 {
		t.Fatalf("calibrated idle-load run gained nothing: %+v", res)
	}
	// Gain per engaged core-hour cannot exceed the pair's B-mode speedup
	// (Q-mode windows and migrations only subtract).
	if perHour := res.BatchCoreHoursGained / res.EngagedCoreHours; perHour > cell.BatchSpeedup+1e-9 {
		t.Fatalf("gain %.4f/engaged-hour exceeds calibrated B speedup %.4f", perHour, cell.BatchSpeedup)
	}
}

// TestIdleWindowReadsZeroTail locks the documented idle-window semantics:
// a client whose arrival rate is zero all horizon simulates no requests,
// reads zero tail in every core-window under BOTH estimators (the zeros
// flow through the exact samples and the histogram shards alike), reports
// zero violations, and drives its controllers into B-mode on the maximal
// slack those zero tails imply.
func TestIdleWindowReadsZeroTail(t *testing.T) {
	for _, est := range []struct {
		name string
		est  stats.TailEstimator
	}{{"exact", stats.EstimatorExact}, {"histogram", stats.EstimatorHistogram}} {
		t.Run(est.name, func(t *testing.T) {
			cfg := lowLoadConfig()
			cfg.TailEstimator = est.est
			cfg.Traffic.Clients[0].Spec = loadgen.Spec{Shape: loadgen.Constant{Rate: 0}}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cm := res.Clients[0]
			if cm.CoreWindows == 0 {
				t.Fatal("no core-windows served")
			}
			if cm.P99Ms != 0 || cm.P999Ms != 0 || res.FleetP99Ms != 0 || res.FleetP999Ms != 0 {
				t.Fatalf("idle fleet reports non-zero tails: client p99=%v p99.9=%v fleet p99=%v p99.9=%v",
					cm.P99Ms, cm.P999Ms, res.FleetP99Ms, res.FleetP999Ms)
			}
			if cm.ViolationWindows != 0 {
				t.Fatalf("%d violations with zero arrivals", cm.ViolationWindows)
			}
			// Zero tail is maximal slack: after the engage hysteresis the
			// controllers must sit in B-mode, harvesting batch hours.
			if cm.EngagedCoreHours == 0 || cm.BatchCoreHoursGained <= 0 {
				t.Fatalf("idle cores never engaged B-mode: engaged=%v gained=%v",
					cm.EngagedCoreHours, cm.BatchCoreHoursGained)
			}
			for _, o := range res.WindowTrace {
				if co := o.Clients[0]; co.MeanTailMs != 0 || co.MaxTailMs != 0 || co.TailP99Ms != 0 {
					t.Fatalf("window %d reads non-zero tail: %+v", o.Window, co)
				}
			}
		})
	}
}
