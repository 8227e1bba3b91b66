package fleet

import (
	"math"
	"reflect"
	"testing"
)

func TestSearchGridContainsHandTuned(t *testing.T) {
	grid := SearchGrid()
	if len(grid) != 21 {
		t.Fatalf("grid has %d candidates, want 21 (4 policies + 17 feedback tunings)", len(grid))
	}
	baseline := false
	seen := map[SchedulerConfig]bool{}
	for _, cand := range grid {
		if cand == (SchedulerConfig{Policy: PolicyFeedback}) {
			baseline = true
		}
		// No two candidates may resolve to the same effective scheduler,
		// or the sweep wastes runs and the ranking shows twins.
		eff := cand.WithDefaults()
		if seen[eff] {
			t.Fatalf("duplicate effective candidate %+v", eff)
		}
		seen[eff] = true
		if err := cand.Validate(); err != nil {
			t.Fatalf("grid candidate invalid: %+v: %v", cand, err)
		}
	}
	if !baseline {
		t.Fatal("hand-tuned feedback baseline missing from the grid")
	}
}

func TestSearchSchedulersRanksAndConserves(t *testing.T) {
	suite := []Config{planConfig(PolicyStatic), planConfig(PolicyFeedback)}
	// The search must force tracing off per run, so suite entries carrying
	// their own levels are harmless.
	suite[1].DecisionTrace = TraceFull
	suite[1].CounterfactualK = 2
	cands := []SchedulerConfig{
		{Policy: PolicyStatic},
		{Policy: PolicyProportional},
		{Policy: PolicyFeedback},
		{Policy: PolicyFeedback, FeedbackGain: 3, Hysteresis: 0.05},
	}
	w := DefaultFitnessWeights()
	outs, err := SearchSchedulers(suite, cands, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(cands) {
		t.Fatalf("%d outcomes for %d candidates", len(outs), len(cands))
	}
	var handTuned *SearchOutcome
	for i := range outs {
		o := &outs[i]
		if i > 0 && outs[i-1].Fitness < o.Fitness {
			t.Fatalf("ranking not descending at %d: %v < %v", i, outs[i-1].Fitness, o.Fitness)
		}
		if len(o.PerTrace) != len(suite) {
			t.Fatalf("outcome %d has %d per-trace terms", i, len(o.PerTrace))
		}
		sum := 0.0
		for _, f := range o.PerTrace {
			sum += f
		}
		if math.Abs(sum-o.Fitness) > 1e-9 {
			t.Fatalf("outcome %d fitness %v != per-trace sum %v", i, o.Fitness, sum)
		}
		if o.Fairness < 0 || o.Fairness > 1 {
			t.Fatalf("outcome %d mean fairness %v outside [0, 1]", i, o.Fairness)
		}
		// Defaults are resolved for the report.
		if o.Scheduler.Policy == PolicyFeedback && (o.Scheduler.FeedbackGain == 0 || o.Scheduler.FeedbackDecay == 0) {
			t.Fatalf("outcome %d reports unresolved gains: %+v", i, o.Scheduler)
		}
		if o.Scheduler == (SchedulerConfig{Policy: PolicyFeedback}).WithDefaults() {
			handTuned = o
		}
	}
	if handTuned == nil {
		t.Fatal("hand-tuned feedback candidate missing from the outcomes")
	}
	// The winner is at least as fit as the hand-tuned baseline — the
	// acceptance guarantee the grid construction provides.
	if outs[0].Fitness < handTuned.Fitness {
		t.Fatalf("winner %v less fit than a participant %v", outs[0].Fitness, handTuned.Fitness)
	}
	// Deterministic: the same sweep reproduces the same ranking exactly.
	again, err := SearchSchedulers(suite, cands, w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs, again) {
		t.Fatal("repeated search produced a different ranking")
	}
}

func TestSearchSchedulersValidation(t *testing.T) {
	suite := []Config{planConfig(PolicyStatic)}
	cands := []SchedulerConfig{{Policy: PolicyStatic}}
	if _, err := SearchSchedulers(nil, cands, DefaultFitnessWeights()); err == nil {
		t.Error("empty suite accepted")
	}
	if _, err := SearchSchedulers(suite, nil, DefaultFitnessWeights()); err == nil {
		t.Error("empty candidate list accepted")
	}
	if _, err := SearchSchedulers(suite, cands, FitnessWeights{Violations: -1}); err == nil {
		t.Error("negative weights accepted")
	}
	bad := []SchedulerConfig{{Policy: Policy(9)}}
	if _, err := SearchSchedulers(suite, bad, DefaultFitnessWeights()); err == nil {
		t.Error("invalid candidate accepted")
	}
}
