// stretchsim search: the policy-search driver. Sweep the scheduler
// candidate grid (every policy, plus PolicyFeedback's gain × decay ×
// hysteresis tunings) over a comma-separated suite of traffic sources —
// recorded trace files and/or named specs — and rank the candidates by
// weighted multi-objective fitness (fleet.FitnessWeights). The hand-tuned
// feedback configuration is always in the grid, so the report's winner is
// at least as fit; the week-trace ranking is locked by a golden test.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"stretch/internal/fleet"
)

// searchParams mirrors the search flag set: the shared run flags, the
// fleet shape and horizon, plus the trace suite and the report knobs.
type searchParams struct {
	fleetParams
	traces  string
	weights string
	top     int
}

// buildSearchSuite materialises the comma-separated trace list into one
// fleet.Config per entry (sharing the fleet shape and simulation knobs)
// plus the entry names for the report. Unlike plan, named generative specs
// are allowed: the fleet size is fixed, so their fleet-anchored rates are
// well-defined.
func buildSearchSuite(p searchParams) ([]fleet.Config, []string, error) {
	names := strings.Split(p.traces, ",")
	suite := make([]fleet.Config, 0, len(names))
	for _, name := range names {
		if name == "" {
			return nil, nil, fmt.Errorf("empty entry in trace suite %q", p.traces)
		}
		fp := p.fleetParams
		fp.trace, fp.policy = name, "static"
		cfg, err := buildFleetConfig(&fp)
		if err != nil {
			return nil, nil, err
		}
		suite = append(suite, cfg)
	}
	return suite, names, nil
}

// formatSearchReport renders the ranked sweep (without wall-clock timing,
// so the output is reproducible and golden-testable). top bounds the
// printed rows (0 = all); the hand-tuned feedback baseline is always
// reported in the closing comparison line, wherever it ranked.
func formatSearchReport(p searchParams, names []string, w fleet.FitnessWeights, outs []fleet.SearchOutcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== search: %d scheduler candidates × %d traces (%s) ==\n",
		len(outs), len(names), strings.Join(names, ", "))
	fmt.Fprintf(&b, "fitness weights %s; %d servers × %d cores\n", w, p.servers, p.cores)
	fmt.Fprintf(&b, "%-4s %-12s %5s %5s %5s %9s %6s %5s %9s %9s\n",
		"rank", "policy", "gain", "decay", "hyst", "fitness", "viol", "migr", "batch(h)", "fairness")
	shown := len(outs)
	if p.top > 0 && p.top < shown {
		shown = p.top
	}
	baseline := fleet.SchedulerConfig{Policy: fleet.PolicyFeedback}.WithDefaults()
	var best, handTuned *fleet.SearchOutcome
	for i := range outs {
		o := &outs[i]
		if o.Scheduler == baseline && handTuned == nil {
			handTuned = o
		}
		if best == nil {
			best = o
		}
		if i >= shown {
			continue
		}
		gain, decay := "-", "-"
		if o.Scheduler.Policy == fleet.PolicyFeedback {
			gain = fmt.Sprintf("%.2f", o.Scheduler.FeedbackGain)
			decay = fmt.Sprintf("%.2f", o.Scheduler.FeedbackDecay)
		}
		fmt.Fprintf(&b, "%-4d %-12s %5s %5s %5.2f %9.1f %6d %5d %9.1f %9.3f\n",
			i+1, o.Scheduler.Policy, gain, decay, o.Scheduler.Hysteresis,
			o.Fitness, o.Violations, o.Migrations, o.BatchCoreHoursGained, o.Fairness)
	}
	if shown < len(outs) {
		fmt.Fprintf(&b, "… %d more candidates (-top 0 shows all)\n", len(outs)-shown)
	}
	if best != nil && handTuned != nil {
		desc := best.Scheduler.Policy.String()
		if best.Scheduler.Policy == fleet.PolicyFeedback {
			desc += fmt.Sprintf(" gain %s decay %s", trimFloat(best.Scheduler.FeedbackGain),
				trimFloat(best.Scheduler.FeedbackDecay))
		}
		desc += fmt.Sprintf(" hysteresis %s", trimFloat(best.Scheduler.Hysteresis))
		fmt.Fprintf(&b, "best: %s — fitness %.1f vs hand-tuned feedback %.1f (%+.1f)\n",
			desc, best.Fitness, handTuned.Fitness, best.Fitness-handTuned.Fitness)
	}
	return b.String()
}

// trimFloat renders a tuning value without trailing zeros.
func trimFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", v), "0"), ".")
}

// runSearch is the search subcommand entry point.
func runSearch(args []string) {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	var p searchParams
	fs.StringVar(&p.traces, "traces", "testdata/week_mixed.trace.csv,failover",
		"comma-separated trace suite: recorded trace files and/or named specs (websearch|video|mixed|failover)")
	fs.IntVar(&p.servers, "servers", 4, "number of servers")
	fs.IntVar(&p.cores, "cores", 4, "SMT cores per server")
	fs.StringVar(&p.weights, "weights", "", "fitness weight spec, e.g. \"viol=1,batch=0.5,migr=0.05,fair=25\" (empty = defaults)")
	fs.IntVar(&p.top, "top", 0, "print only the top N candidates (0 = all)")
	fs.Float64Var(&p.hours, "hours", 24, "horizon for named generative specs (trace files bring their own)")
	fs.IntVar(&p.wph, "windows-per-hour", 4, "monitoring windows per hour for named specs")
	addRunFlags(fs, &p.fleetParams, 150)
	fs.Parse(args)

	weights, err := fleet.ParseFitnessWeights(p.weights)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stretchsim: search: %v\n", err)
		os.Exit(2)
	}
	suite, names, err := buildSearchSuite(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stretchsim: search: %v\n", err)
		os.Exit(2)
	}
	start := time.Now()
	outs, err := fleet.SearchSchedulers(suite, fleet.SearchGrid(), weights)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stretchsim: search: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(formatSearchReport(p, names, weights, outs))
	fmt.Printf("(%d candidates × %d traces, %.1fs wall)\n", len(outs), len(suite), time.Since(start).Seconds())
}
