// Policy search: sweep SchedulerConfig candidates against a trace suite
// and rank them by fitness. This is the ROADMAP's "stop hand-tuning
// policies" move: with decisions as data and a scalar fitness, finding a
// better scheduler becomes a (deterministic, exhaustive) search instead of
// an intuition. The driver is deliberately a plain grid sweep — the
// candidate space is tiny and a full ranking is more useful for a report
// than a black-box optimum.
package fleet

import (
	"fmt"
	"sort"
)

// SearchOutcome is one candidate's evaluation over the whole suite.
type SearchOutcome struct {
	// Scheduler is the candidate with defaults resolved (so reports show
	// the gains and hysteresis actually run, not zero placeholders).
	Scheduler SchedulerConfig
	// Fitness is the candidate's total fitness, summed over the suite;
	// PerTrace holds the per-suite-entry terms in suite order.
	Fitness  float64
	PerTrace []float64
	// Violations, Migrations and BatchCoreHoursGained sum the raw
	// objectives over the suite; Fairness is the mean Jain index.
	Violations, Migrations int
	BatchCoreHoursGained   float64
	Fairness               float64
}

// SearchGrid is the default candidate grid: every policy at its defaults,
// plus a sweep of PolicyFeedback's gain × decay × hysteresis. The
// hand-tuned default feedback configuration is always a member, so the
// ranked winner's fitness is ≥ the hand-tuned one's by construction.
func SearchGrid() []SchedulerConfig {
	grid := []SchedulerConfig{
		{Policy: PolicyStatic},
		{Policy: PolicyProportional},
		{Policy: PolicyP2C},
		{Policy: PolicyFeedback}, // the hand-tuned baseline
	}
	for _, gain := range []float64{0.75, 1.5, 3} {
		for _, decay := range []float64{0.85, 0.92} {
			for _, hyst := range []float64{0.05, 0.1, 0.2} {
				if gain == feedbackGain && decay == feedbackDecay && hyst == defaultHysteresis {
					continue // already in the grid as the zero-valued baseline
				}
				grid = append(grid, SchedulerConfig{
					Policy:       PolicyFeedback,
					FeedbackGain: gain, FeedbackDecay: decay, Hysteresis: hyst,
				})
			}
		}
	}
	return grid
}

// SearchSchedulers evaluates every candidate scheduler over every suite
// config and returns the outcomes ranked by fitness, best first (ties
// keep candidate order, so the ranking is deterministic). Each suite
// entry is run once per candidate with its Scheduler replaced; decision
// tracing and counterfactuals are forced off — the search wants the
// cheapest honest run, and the suite configs' own levels would only slow
// the sweep.
func SearchSchedulers(suite []Config, cands []SchedulerConfig, w FitnessWeights) ([]SearchOutcome, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if len(suite) == 0 {
		return nil, fmt.Errorf("fleet: search needs a non-empty trace suite")
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("fleet: search needs candidate schedulers")
	}
	outs := make([]SearchOutcome, 0, len(cands))
	for _, cand := range cands {
		out := SearchOutcome{
			Scheduler: cand.WithDefaults(),
			PerTrace:  make([]float64, len(suite)),
		}
		for ti, cfg := range suite {
			cfg.Scheduler = cand
			cfg.DecisionTrace = TraceOff
			cfg.CounterfactualK = 0
			res, err := Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("fleet: search candidate %s on suite entry %d: %w",
					cand.Policy, ti, err)
			}
			f := w.Score(res)
			out.PerTrace[ti] = f
			out.Fitness += f
			out.Violations += res.ViolationWindows
			out.Migrations += res.Migrations
			out.BatchCoreHoursGained += res.BatchCoreHoursGained
			out.Fairness += res.FairnessIndex
		}
		out.Fairness /= float64(len(suite))
		outs = append(outs, out)
	}
	sort.SliceStable(outs, func(a, b int) bool { return outs[a].Fitness > outs[b].Fitness })
	return outs, nil
}
