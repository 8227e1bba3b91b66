package fleet

import (
	"math"
	"reflect"
	"testing"

	"stretch/internal/loadgen"
)

func TestParseTraceLevel(t *testing.T) {
	for s, want := range map[string]TraceLevel{
		"":        TraceOff,
		"off":     TraceOff,
		"summary": TraceSummary,
		"full":    TraceFull,
	} {
		got, err := ParseTraceLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseTraceLevel(%q) = %v, %v", s, got, err)
		}
		if s != "" && got.String() != s {
			t.Errorf("round trip %q -> %q", s, got.String())
		}
	}
	if _, err := ParseTraceLevel("verbose"); err == nil {
		t.Error("unknown level accepted")
	}
	if err := TraceLevel(9).Validate(); err == nil {
		t.Error("out-of-range level validated")
	}
}

func TestDecisionTraceConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.DecisionTrace = TraceLevel(9) },
		func(c *Config) { c.CounterfactualK = -1 },
		func(c *Config) { c.CounterfactualK = 2 }, // needs a trace level
	}
	for i, mutate := range bad {
		cfg := lowLoadConfig()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	ok := lowLoadConfig()
	ok.DecisionTrace = TraceSummary
	ok.CounterfactualK = 2
	if _, err := Run(ok); err != nil {
		t.Fatalf("counterfactuals atop a summary trace rejected: %v", err)
	}
}

func TestDecisionTraceOffByDefault(t *testing.T) {
	res, err := Run(lowLoadConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.DecisionTrace != nil {
		t.Fatalf("tracing off still recorded %d decisions", len(res.DecisionTrace))
	}
	if res.FairnessIndex <= 0 || res.FairnessIndex > 1 {
		t.Fatalf("fairness index %v outside (0, 1]", res.FairnessIndex)
	}
}

// decisionScenario is the eventful schedule the decision-trace property
// tests run under: a drain/restore cycle, a surge and a slow server.
func decisionScenario() loadgen.Scenario {
	return loadgen.Scenario{Events: []loadgen.Event{
		{Kind: loadgen.EventDrain, Window: 2, Server: 1},
		{Kind: loadgen.EventRestore, Window: 6, Server: 1},
		{Kind: loadgen.EventSurge, Window: 4, Until: 8, Client: "b", Factor: 1.5},
		{Kind: loadgen.EventPerf, Server: 3, Factor: 0.85},
	}}
}

// checkDecisionTrace asserts the conservation contract on one run's
// decision trace: every record partitions the fleet's cores between
// clients and the drained/parked/idle buckets, the per-client deltas are
// consistent with the previous record, and the record agrees with the
// independently-aggregated WindowTrace entry for the same window.
func checkDecisionTrace(t *testing.T, label string, cfg Config, res Result) {
	t.Helper()
	if len(res.DecisionTrace) != res.Windows {
		t.Fatalf("%s: %d decision records for %d windows", label, len(res.DecisionTrace), res.Windows)
	}
	prev := make([]int, len(res.Clients))
	for w := range res.DecisionTrace {
		rec := &res.DecisionTrace[w]
		if rec.Window != w {
			t.Fatalf("%s: record %d labelled window %d", label, w, rec.Window)
		}
		if len(rec.Clients) != len(res.Clients) {
			t.Fatalf("%s: window %d has %d client decisions", label, w, len(rec.Clients))
		}
		obs := res.WindowTrace[w]
		serving := 0
		for ci := range rec.Clients {
			cd := &rec.Clients[ci]
			serving += cd.Cores
			if cd.Gained < 0 || cd.Lost < 0 || (cd.Gained > 0 && cd.Lost > 0) {
				t.Fatalf("%s: window %d client %d gained %d lost %d", label, w, ci, cd.Gained, cd.Lost)
			}
			// Conservation against the previous record (all-idle at w=0):
			// the net delta is exactly what the gain/loss split says.
			if cd.Cores-prev[ci] != cd.Gained-cd.Lost {
				t.Fatalf("%s: window %d client %d cores %d (prev %d) but gained %d lost %d",
					label, w, ci, cd.Cores, prev[ci], cd.Gained, cd.Lost)
			}
			prev[ci] = cd.Cores
			if cd.Cores != obs.Clients[ci].Cores {
				t.Fatalf("%s: window %d client %d: decision says %d cores, window trace %d",
					label, w, ci, cd.Cores, obs.Clients[ci].Cores)
			}
			if cd.Desired < 0 || cd.OfferedRPS < 0 || cd.Weight <= 0 {
				t.Fatalf("%s: window %d client %d signals implausible: %+v", label, w, ci, cd)
			}
			if cfg.Scheduler.Policy != PolicyFeedback && cd.Weight != 1 {
				t.Fatalf("%s: open-loop policy reports pressure weight %v", label, cd.Weight)
			}
			if cfg.Scheduler.Policy == PolicyStatic && cd.Desired != cd.Cores {
				t.Fatalf("%s: static policy desired %d != held %d", label, cd.Desired, cd.Cores)
			}
		}
		// The partition invariant: client cores plus the three non-serving
		// buckets cover the fleet exactly — a core gained anywhere was lost
		// somewhere else.
		if got := serving + rec.Drained + rec.Parked + rec.Idle; got != res.Cores {
			t.Fatalf("%s: window %d partitions %d of %d cores", label, w, got, res.Cores)
		}
		if rec.Active != serving+rec.Idle {
			t.Fatalf("%s: window %d active %d != serving %d + idle %d",
				label, w, rec.Active, serving, rec.Idle)
		}
		if rec.Drained != obs.DrainedCores || rec.Parked != obs.ParkedCores || rec.Idle != obs.IdleCores {
			t.Fatalf("%s: window %d buckets %d/%d/%d disagree with window trace %d/%d/%d",
				label, w, rec.Drained, rec.Parked, rec.Idle,
				obs.DrainedCores, obs.ParkedCores, obs.IdleCores)
		}
		if rec.Migrations != obs.Migrations {
			t.Fatalf("%s: window %d migrations %d != window trace %d", label, w, rec.Migrations, obs.Migrations)
		}
		if rec.Migrations > 0 && rec.MigrationPenalty != migrationPenalty {
			t.Fatalf("%s: window %d charged %d migrations at penalty %v, want %v",
				label, w, rec.Migrations, rec.MigrationPenalty, migrationPenalty)
		}
		if cfg.Scheduler.Policy == PolicyStatic {
			if rec.Moves != 0 || rec.Rebalanced || rec.Suppressed || rec.Forced {
				t.Fatalf("%s: static policy recorded scheduling activity: %+v", label, rec)
			}
		}
		if rec.Rebalanced && rec.Suppressed {
			t.Fatalf("%s: window %d both rebalanced and suppressed", label, w)
		}
	}
}

// TestDecisionRecordConservation is the decision-trace property test:
// across every policy, with and without scenario events, under both the
// discrete and auto engines and with an autoscaler parking servers
// mid-horizon, each window's record conserves cores and mirrors the
// engine's own window trace — and the whole Result (trace included) is
// identical at 1, 5 and 16 workers.
func TestDecisionRecordConservation(t *testing.T) {
	for _, policy := range []Policy{PolicyStatic, PolicyProportional, PolicyP2C, PolicyFeedback} {
		for _, eng := range []Engine{EngineDiscrete, EngineAuto} {
			for _, withEvents := range []bool{false, true} {
				cfg := planConfig(policy)
				cfg.Traffic.Clients[0].Spec.Poisson = true
				cfg.Traffic.Clients[1].Spec.Poisson = true
				cfg.Engine = eng
				cfg.DecisionTrace = TraceSummary
				if withEvents {
					cfg.Scenario = decisionScenario()
				}
				label := policy.String() + "/" + eng.String()
				if withEvents {
					label += "/events"
				}
				cfg.Workers = 1
				base, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkDecisionTrace(t, label, cfg, base)
				for _, workers := range []int{5, 16} {
					c := cfg
					c.Workers = workers
					got, err := Run(c)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !reflect.DeepEqual(base, got) {
						t.Fatalf("%s: %d workers perturbed the decision trace", label, workers)
					}
				}
			}
		}
	}
	// Autoscaling composes: parked cores land in the Parked bucket and the
	// partition still covers the fleet.
	cfg := planConfig(PolicyProportional)
	cfg.DecisionTrace = TraceSummary
	cfg.Autoscale = AutoscaleConfig{Policy: AutoscaleUtil, Custom: windowScale(func(w int) int {
		if w == 2 || w == 3 {
			return 3
		}
		return 4
	})}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkDecisionTrace(t, "proportional/autoscale", cfg, res)
	parked := 0
	for _, rec := range res.DecisionTrace {
		parked += rec.Parked
	}
	if parked != 4 {
		t.Fatalf("autoscaled trace shows %d parked core-windows, want 4", parked)
	}
}

// TestDecisionTraceFullReplaysAssignment checks the TraceFull contract:
// the per-core snapshots alone are enough to reproduce the engine's
// schedule — per-client core counts, routed load and the migration flags
// all follow from the records.
func TestDecisionTraceFullReplaysAssignment(t *testing.T) {
	cfg := planConfig(PolicyProportional)
	cfg.Scenario = decisionScenario()
	cfg.DecisionTrace = TraceFull
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkFullReplay(t, "proportional/events", cfg, res)

	// Autoscale warm-up: the replay must charge the rejoining server's
	// cores even though their owner never changed.
	auto := planConfig(PolicyStatic)
	auto.DecisionTrace = TraceFull
	auto.Autoscale = AutoscaleConfig{Policy: AutoscaleUtil, Custom: windowScale(func(w int) int {
		if w == 2 || w == 3 {
			return 3
		}
		return 4
	})}
	res, err = Run(auto)
	if err != nil {
		t.Fatal(err)
	}
	checkFullReplay(t, "static/autoscale", auto, res)

	// TraceSummary omits the snapshot.
	cfg.DecisionTrace = TraceSummary
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for w := range res.DecisionTrace {
		if res.DecisionTrace[w].Assignment != nil {
			t.Fatalf("summary trace window %d carries a per-core snapshot", w)
		}
	}
}

// TestCounterfactualRegretNonNegative pins the regret construction: every
// traced window carries an evaluation whose best cost is the minimum over
// the chosen and all alternatives, so regret is ≥ 0 — under both engines,
// with scenario events stressing degraded fleets.
func TestCounterfactualRegretNonNegative(t *testing.T) {
	for _, eng := range []Engine{EngineDiscrete, EngineAuto} {
		cfg := planConfig(PolicyFeedback)
		cfg.Scenario = decisionScenario()
		cfg.Engine = eng
		cfg.DecisionTrace = TraceSummary
		cfg.CounterfactualK = 3
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		evaluated := 0
		for w := range res.DecisionTrace {
			cf := res.DecisionTrace[w].Counterfactual
			if cf == nil {
				t.Fatalf("%v: window %d has no counterfactual", eng, w)
			}
			if cf.K != 3 || len(cf.Alternatives) > 3 {
				t.Fatalf("%v: window %d evaluated %d alternatives under k=%d", eng, w, len(cf.Alternatives), cf.K)
			}
			best := cf.ChosenCost
			for _, alt := range cf.Alternatives {
				if alt.Donor == alt.Receiver || alt.Cost < 0 || math.IsNaN(alt.Cost) {
					t.Fatalf("%v: window %d alternative implausible: %+v", eng, w, alt)
				}
				if alt.Cost < best {
					best = alt.Cost
				}
				evaluated++
			}
			if cf.BestCost != best {
				t.Fatalf("%v: window %d best cost %v, recomputed %v", eng, w, cf.BestCost, best)
			}
			if cf.Regret != cf.ChosenCost-cf.BestCost || cf.Regret < 0 {
				t.Fatalf("%v: window %d regret %v (chosen %v, best %v)",
					eng, w, cf.Regret, cf.ChosenCost, cf.BestCost)
			}
		}
		if evaluated == 0 {
			t.Fatalf("%v: no alternatives evaluated over the whole horizon", eng)
		}
	}
}

// TestCounterfactualDeterministicAcrossWorkers extends the determinism
// contract to the counterfactual evaluator: it runs on the engine
// goroutine from (seed, window, client)-derived randomness only, so the
// full decision trace — alternatives, costs and regret included — must be
// identical at 1 and 8 workers.
func TestCounterfactualDeterministicAcrossWorkers(t *testing.T) {
	for _, eng := range []Engine{EngineDiscrete, EngineAuto} {
		for _, policy := range []Policy{PolicyProportional, PolicyFeedback} {
			cfg := planConfig(policy)
			cfg.Traffic.Clients[0].Spec.Poisson = true
			cfg.Traffic.Clients[1].Spec.Poisson = true
			cfg.Scenario = decisionScenario()
			cfg.Engine = eng
			cfg.DecisionTrace = TraceFull
			cfg.CounterfactualK = 3
			one := cfg
			one.Workers = 1
			many := cfg
			many.Workers = 8
			a, err := Run(one)
			if err != nil {
				t.Fatalf("%v/%v: %v", eng, policy, err)
			}
			b, err := Run(many)
			if err != nil {
				t.Fatalf("%v/%v: %v", eng, policy, err)
			}
			if !reflect.DeepEqual(a.DecisionTrace, b.DecisionTrace) {
				t.Fatalf("%v/%v: worker count perturbed the decision trace", eng, policy)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%v/%v: worker count perturbed the results", eng, policy)
			}
		}
	}
}

func checkFullReplay(t *testing.T, label string, cfg Config, res Result) {
	t.Helper()
	nCores := res.Cores
	cps := cfg.CoresPerServer
	// lastOwner replay state: the last real client each core served, and
	// whether each server was parked last window (to spot rejoins).
	lastOwner := make([]int16, nCores)
	for c := range lastOwner {
		lastOwner[c] = coreIdle
	}
	prevParked := make([]bool, nCores/cps)
	for w := range res.DecisionTrace {
		rec := &res.DecisionTrace[w]
		ar := rec.Assignment
		if ar == nil || len(ar.Client) != nCores || len(ar.Rate) != nCores || len(ar.Migrated) != nCores {
			t.Fatalf("%s: window %d snapshot missing or misshapen", label, w)
		}
		counts := make([]int, len(rec.Clients))
		rates := make([]float64, len(rec.Clients))
		buckets := map[int16]int{}
		parked := make([]bool, nCores/cps)
		for s := range parked {
			parked[s] = true
		}
		migrations := 0
		for c := 0; c < nCores; c++ {
			cl := ar.Client[c]
			if cl >= 0 {
				counts[cl]++
				rates[cl] += ar.Rate[c]
				parked[c/cps] = false
			} else {
				buckets[cl]++
				if cl != coreParked {
					parked[c/cps] = false
				}
				if ar.Rate[c] != 0 {
					t.Fatalf("%s: window %d non-serving core %d routed %v rps", label, w, c, ar.Rate[c])
				}
			}
			if ar.Migrated[c] {
				migrations++
			}
			// Recompute the flag from the replay state.
			want := false
			if cl >= 0 {
				joined := w > 0 && prevParked[c/cps]
				want = (w > 0 && lastOwner[c] != cl) || joined
				lastOwner[c] = cl
			}
			if ar.Migrated[c] != want {
				t.Fatalf("%s: window %d core %d migrated=%v, replay says %v",
					label, w, c, ar.Migrated[c], want)
			}
		}
		copy(prevParked, parked)
		if migrations != rec.Migrations {
			t.Fatalf("%s: window %d snapshot has %d migrated cores, record says %d",
				label, w, migrations, rec.Migrations)
		}
		if buckets[coreDrained] != rec.Drained || buckets[coreParked] != rec.Parked || buckets[coreIdle] != rec.Idle {
			t.Fatalf("%s: window %d snapshot buckets %d/%d/%d != record %d/%d/%d", label, w,
				buckets[coreDrained], buckets[coreParked], buckets[coreIdle],
				rec.Drained, rec.Parked, rec.Idle)
		}
		for ci := range rec.Clients {
			if counts[ci] != rec.Clients[ci].Cores {
				t.Fatalf("%s: window %d client %d snapshot holds %d cores, record says %d",
					label, w, ci, counts[ci], rec.Clients[ci].Cores)
			}
			if counts[ci] != res.WindowTrace[w].Clients[ci].Cores {
				t.Fatalf("%s: window %d client %d snapshot holds %d cores, window trace says %d",
					label, w, ci, counts[ci], res.WindowTrace[w].Clients[ci].Cores)
			}
			// Routing conserves the offered load the record reports.
			if offered := rec.Clients[ci].OfferedRPS; counts[ci] > 0 && offered > 0 {
				if math.Abs(rates[ci]-offered) > 1e-9*offered {
					t.Fatalf("%s: window %d client %d routes %v of %v offered",
						label, w, ci, rates[ci], offered)
				}
			}
		}
	}
}

// TestDecisionForcedNotCarriedOver: a window with no in-service cores
// makes no allocation decision, so it must not report the previous
// window's Forced flag. Search replays twenty times its rate in window 4,
// far beyond what its cores can serve, so window 4 violates in every
// realisation of the streams and feedback forces window 5's decision;
// then the whole fleet drains for two windows.
func TestDecisionForcedNotCarriedOver(t *testing.T) {
	cfg := feedbackConfig(PolicyFeedback)
	cfg.DecisionTrace = TraceSummary
	rates := make([]float64, cfg.Traffic.Windows)
	for w := range rates {
		rates[w] = 10200
	}
	rates[4] *= 20
	cfg.Traffic.Clients[0].Spec = loadgen.Spec{Shape: loadgen.Replay{Rates: rates}}
	for s := 0; s < cfg.Servers; s++ {
		cfg.Scenario.Events = append(cfg.Scenario.Events,
			loadgen.Event{Kind: loadgen.EventDrain, Window: 6, Server: s},
			loadgen.Event{Kind: loadgen.EventRestore, Window: 8, Server: s})
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DecisionTrace[5].Forced {
		t.Fatal("window 5 was not forced; the test is vacuous")
	}
	for _, r := range res.DecisionTrace[6:8] {
		if r.Active != 0 || r.Forced {
			t.Errorf("window %d: %d active cores, forced %v; want 0 and false", r.Window, r.Active, r.Forced)
		}
	}
}
