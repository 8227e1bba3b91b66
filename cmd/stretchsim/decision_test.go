package main

import (
	"path/filepath"
	"testing"

	"stretch/internal/fleet"
)

// TestDecisionTraceGolden locks the -trace-level summary report on the
// mixed feedback day, counterfactuals included: the full fleet report
// followed by the decision-trace block (rebalance counts, cumulative
// regret, one row per window that wanted core-moves). Rebless with
// -update after an intentional change.
func TestDecisionTraceGolden(t *testing.T) {
	p := goldenParams("mixed", "feedback")
	p.traceLevel = "summary"
	p.counterfactualK = 2
	cfg, err := buildFleetConfig(&p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := formatFleetResult(p, cfg, res) + formatDecisionTrace(res)
	checkGolden(t, filepath.Join("testdata", "mixed_feedback_trace.golden"), []byte(got))
}

// TestSearchGolden locks the ranked policy-search report over the
// committed week trace: 21 grid candidates, fitness-ordered, with the
// hand-tuned feedback comparison line. The report format excludes wall
// time, so the file is byte-stable.
func TestSearchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("21-candidate sweep over the 7-day trace")
	}
	p := searchParams{
		fleetParams: fleetParams{
			servers: 4, cores: 4,
			estimator: "histogram", engine: "discrete",
			hours: 24, wph: 4, windowReq: 60, seed: 1,
			bSpeedup: 0.13, lsSlowdown: 0.07,
		},
		traces: weekTracePath,
	}
	weights, err := fleet.ParseFitnessWeights(p.weights)
	if err != nil {
		t.Fatal(err)
	}
	suite, names, err := buildSearchSuite(p)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := fleet.SearchSchedulers(suite, fleet.SearchGrid(), weights)
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance guarantee, asserted on the same run the golden locks:
	// the winner is at least as fit as the hand-tuned feedback baseline.
	baseline := fleet.SchedulerConfig{Policy: fleet.PolicyFeedback}.WithDefaults()
	for _, o := range outs {
		if o.Scheduler == baseline && outs[0].Fitness < o.Fitness {
			t.Fatalf("winner fitness %v below hand-tuned feedback's %v", outs[0].Fitness, o.Fitness)
		}
	}
	got := formatSearchReport(p, names, weights, outs)
	checkGolden(t, filepath.Join("testdata", "search_week.golden"), []byte(got))
}

// TestFeedbackRegretBeatsProportionalOnFailover extends the failover-day
// acceptance check to the counterfactual evaluator: the closed loop's
// chosen assignments must accumulate less regret — fewer violation
// core-windows left on the table versus the evaluated single-core moves —
// than proportional's over the same day.
func TestFeedbackRegretBeatsProportionalOnFailover(t *testing.T) {
	run := func(policy string) (cumRegret float64, windows int) {
		t.Helper()
		p := goldenParams("failover", policy)
		p.hours = 24
		p.traceLevel = "summary"
		p.counterfactualK = 3
		cfg, err := buildFleetConfig(&p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fleet.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range res.DecisionTrace {
			if rec.Counterfactual == nil {
				t.Fatalf("%s: window %d missing its counterfactual", policy, rec.Window)
			}
			if rec.Counterfactual.Regret < 0 {
				t.Fatalf("%s: window %d negative regret %v", policy, rec.Window, rec.Counterfactual.Regret)
			}
			cumRegret += rec.Counterfactual.Regret
		}
		return cumRegret, len(res.DecisionTrace)
	}
	fb, windows := run("feedback")
	prop, _ := run("proportional")
	if windows != 96 {
		t.Fatalf("failover day traced %d windows, want 96", windows)
	}
	if prop == 0 {
		t.Fatal("proportional accumulated no regret; the comparison is vacuous")
	}
	if fb >= prop {
		t.Errorf("feedback's cumulative regret %.1f not below proportional's %.1f", fb, prop)
	}
}
