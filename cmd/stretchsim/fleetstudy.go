// Fleet-study construction and rendering for stretchsim -fleet, separated
// from main so the golden-artifact regression tests can build the exact
// CLI configuration and lock the exact CLI output.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"stretch/internal/calib"
	"stretch/internal/fleet"
	"stretch/internal/loadgen"
	"stretch/internal/sampling"
	"stretch/internal/stats"
	"stretch/internal/tracefile"
	"stretch/internal/workload"
)

// fleetParams mirrors the -fleet flag set; plan and search embed it for
// the run flags they share.
type fleetParams struct {
	servers, cores  int
	trace           string
	policy          string
	autoscale       string
	autoMin         int
	events          string
	estimator       string
	engine          string
	calib           string
	hours           float64
	wph, windowReq  int
	seed            uint64
	workers         int
	bSpeedup        float64
	lsSlowdown      float64
	windowTrace     bool
	traceLevel      string
	counterfactualK int
}

// addRunFlags registers the run flags -fleet, plan and search share into
// p; windowReq is the -window-requests default.
func addRunFlags(fs *flag.FlagSet, p *fleetParams, windowReq int) {
	fs.StringVar(&p.estimator, "tail-estimator", "histogram", "tail quantile estimator (histogram|exact)")
	fs.StringVar(&p.engine, "engine", "discrete", "window engine — discrete event simulation, or per-window auto classification that answers steady windows analytically (discrete|auto)")
	fs.StringVar(&p.calib, "calib", "", "per-(service,batch,mode) calibration from the cycle-level model: \"default\" for the committed table, a .json path for an on-disk cache (built on miss), empty for uniform scalars")
	fs.StringVar(&p.events, "events", "", "scenario events overriding the trace's embedded or default annotations, e.g. \"drain:24:0,restore:72:0,surge:30-40:video:1.8,perf:3:0.85\"")
	fs.IntVar(&p.windowReq, "window-requests", windowReq, "simulated requests per core-window")
	fs.Uint64Var(&p.seed, "seed", 1, "experiment seed")
	fs.IntVar(&p.workers, "fleet-workers", 0, "goroutine pool size per run (0 = GOMAXPROCS)")
	fs.Float64Var(&p.bSpeedup, "b-speedup", 0.13, "measured B-mode batch speedup")
	fs.Float64Var(&p.lsSlowdown, "ls-slowdown", 0.07, "measured B-mode LS slowdown")
}

// fleetTraces lists the named traffic specs.
func fleetTraces() []string { return []string{"websearch", "video", "mixed", "failover"} }

func isNamedTrace(name string) bool {
	for _, t := range fleetTraces() {
		if t == name {
			return true
		}
	}
	return false
}

// namedSpecClients materialises one of the named generative traffic specs
// for a fleet of servers × cores SMT cores over the given horizon. It is
// shared by -fleet (which simulates the spec directly) and synth (which
// records its realisation into a trace file).
func namedSpecClients(name string, servers, cores, windows, wph int, seed uint64) ([]loadgen.Client, error) {
	nCores := servers * cores
	windowsPerDay := 24 * wph

	// Anchor each service's traffic at its peak sustainable per-core rate
	// (memoised: the PeakLoad bisection is the expensive part of startup).
	peaks := map[string]float64{}
	peak := func(svc string) (float64, error) {
		if pk, ok := peaks[svc]; ok {
			return pk, nil
		}
		pk, err := fleet.PeakRPSPerCore(svc, 4000, seed)
		if err == nil {
			peaks[svc] = pk
		}
		return pk, err
	}

	diurnal := func(svc string, day [24]float64, coreShare float64) (loadgen.Spec, error) {
		pk, err := peak(svc)
		if err != nil {
			return loadgen.Spec{}, err
		}
		return loadgen.Spec{Shape: loadgen.Diurnal{
			HourLoad:      day,
			PeakRPS:       pk * coreShare,
			Smooth:        true,
			WindowsPerDay: windowsPerDay,
		}, Poisson: true}, nil
	}

	// The mixed client population: strict-SLO search, relaxed video, and
	// a bursty ramping kvstore. Shared by the mixed and failover traces.
	mixedClients := func() ([]loadgen.Client, error) {
		// Burst shape for the kvstore client: half-hour spikes every third
		// of the horizon. Clamp so coarse grains keep a real burst and tiny
		// horizons degrade to a single burst instead of a permanent one.
		burstLen := wph / 2
		if burstLen < 1 {
			burstLen = 1
		}
		burstEvery := windows / 3
		if burstEvery <= burstLen {
			burstEvery = 0
		}
		ws, err := diurnal(workload.WebSearch, loadgen.WebSearchDay(), float64(nCores)/2)
		if err != nil {
			return nil, err
		}
		vid, err := diurnal(workload.MediaStreaming, loadgen.VideoDay(), float64(nCores)*3/10)
		if err != nil {
			return nil, err
		}
		dsPeak, err := peak(workload.DataServing)
		if err != nil {
			return nil, err
		}
		dsCores := float64(nCores) / 5
		// Batch pairings span the calibration spectrum: a high-MLP
		// streamer behind search, a memory streamer behind video, a
		// pointer-chaser behind the kvstore. Inert without -calib.
		return []loadgen.Client{
			{Name: "search", Service: workload.WebSearch, Batch: workload.Zeusmp, Fraction: 0.5,
				SLO: loadgen.SLOStrict, Spec: ws},
			{Name: "video", Service: workload.MediaStreaming, Batch: "libquantum", Fraction: 0.3,
				SLO: loadgen.SLORelaxed, Spec: vid},
			{Name: "kvstore", Service: workload.DataServing, Batch: "mcf", Fraction: 0.2,
				Spec: loadgen.Spec{Shape: loadgen.Burst{
					Base: loadgen.Ramp{
						StartRPS:  0.3 * dsPeak * dsCores,
						TargetRPS: 0.7 * dsPeak * dsCores,
					},
					Start: windows / 3, Length: burstLen, Every: burstEvery,
					Magnitude: 1.8,
				}, Poisson: true}},
		}, nil
	}

	switch name {
	case "websearch":
		spec, err := diurnal(workload.WebSearch, loadgen.WebSearchDay(), float64(nCores))
		if err != nil {
			return nil, err
		}
		return []loadgen.Client{{
			Name: "search", Service: workload.WebSearch, Batch: workload.Zeusmp, Fraction: 1, Spec: spec,
		}}, nil
	case "video":
		spec, err := diurnal(workload.MediaStreaming, loadgen.VideoDay(), float64(nCores))
		if err != nil {
			return nil, err
		}
		return []loadgen.Client{{
			Name: "video", Service: workload.MediaStreaming, Batch: "libquantum", Fraction: 1, Spec: spec,
		}}, nil
	case "mixed", "failover":
		return mixedClients()
	default:
		return nil, fmt.Errorf("unknown fleet trace %q (%s, or a trace file path)",
			name, strings.Join(fleetTraces(), "|"))
	}
}

// namedSpecTraffic materialises a named spec over hours × wph windows,
// with the scenario it runs under: the parsed events, or the failover
// spec's default scenario when events is empty. -fleet and synth share it.
func namedSpecTraffic(name string, servers, cores int, hours float64, wph int, seed uint64, events string) (loadgen.Traffic, loadgen.Scenario, error) {
	windows := int(hours * float64(wph))
	if windows <= 0 {
		return loadgen.Traffic{}, loadgen.Scenario{}, fmt.Errorf("non-positive horizon")
	}
	clients, err := namedSpecClients(name, servers, cores, windows, wph, seed)
	if err != nil {
		return loadgen.Traffic{}, loadgen.Scenario{}, err
	}
	scenario, err := loadgen.ParseEvents(events)
	if err != nil {
		return loadgen.Traffic{}, loadgen.Scenario{}, err
	}
	if name == "failover" && events == "" {
		scenario = failoverScenario(servers, windows)
	}
	return loadgen.Traffic{Clients: clients, Windows: windows, WindowSec: 3600.0 / float64(wph)}, scenario, nil
}

// buildFleetConfig materialises the trace, policy and event list into a
// fleet.Config. The trace is either a named generative spec or the path
// of a recorded trace file to replay; replay adopts the file's horizon
// (overwriting p.hours so the report header reflects it) and its embedded
// scenario annotations. The failover spec ships a default scenario — a
// quarter of the servers fail mid-day and return later, on a fleet whose
// last quarter of servers is an older hardware generation. -events
// overrides either source of events. The config is validated here, so a
// bad flag combination exits as a usage error on every subcommand.
func buildFleetConfig(p *fleetParams) (fleet.Config, error) {
	policy, err := fleet.ParsePolicy(p.policy)
	if err != nil {
		return fleet.Config{}, err
	}
	autoPolicy, err := fleet.ParseAutoscalePolicy(p.autoscale)
	if err != nil {
		return fleet.Config{}, err
	}
	estimator, err := stats.ParseTailEstimator(p.estimator)
	if err != nil {
		return fleet.Config{}, err
	}
	engine, err := fleet.ParseEngine(p.engine)
	if err != nil {
		return fleet.Config{}, err
	}
	traceLevel, err := fleet.ParseTraceLevel(p.traceLevel)
	if err != nil {
		return fleet.Config{}, err
	}
	if p.windowReq <= 0 {
		return fleet.Config{}, fmt.Errorf("non-positive -window-requests %d", p.windowReq)
	}
	if p.counterfactualK < 0 {
		return fleet.Config{}, fmt.Errorf("negative -counterfactual-k %d", p.counterfactualK)
	}
	if p.counterfactualK > 0 && traceLevel == fleet.TraceOff {
		return fleet.Config{}, fmt.Errorf("-counterfactual-k needs -trace-level summary or full")
	}

	var (
		traffic  loadgen.Traffic
		scenario loadgen.Scenario
	)
	if isNamedTrace(p.trace) {
		traffic, scenario, err = namedSpecTraffic(p.trace, p.servers, p.cores, p.hours, p.wph, p.seed, p.events)
		if err != nil {
			return fleet.Config{}, err
		}
	} else {
		if _, statErr := os.Stat(p.trace); statErr != nil {
			return fleet.Config{}, fmt.Errorf("unknown fleet trace %q (%s, or a trace file path)",
				p.trace, strings.Join(fleetTraces(), "|"))
		}
		t, err := tracefile.Load(p.trace)
		if err != nil {
			return fleet.Config{}, err
		}
		if traffic, err = t.Traffic(); err != nil {
			return fleet.Config{}, err
		}
		p.hours = t.Hours()
		scenario = t.Events
		if p.events != "" {
			if scenario, err = loadgen.ParseEvents(p.events); err != nil {
				return fleet.Config{}, err
			}
		}
	}

	table, err := resolveCalibration(p.calib, traffic.Clients)
	if err != nil {
		return fleet.Config{}, err
	}

	cfg := fleet.Config{
		Servers: p.servers, CoresPerServer: p.cores,
		Traffic:       traffic,
		Calibration:   table,
		BatchSpeedupB: p.bSpeedup, LSSlowdownB: p.lsSlowdown,
		WindowRequests: p.windowReq, Workers: p.workers, Seed: p.seed,
		TailEstimator:   estimator,
		Engine:          engine,
		Scheduler:       fleet.SchedulerConfig{Policy: policy},
		DecisionTrace:   traceLevel,
		CounterfactualK: p.counterfactualK,
		Autoscale:       fleet.AutoscaleConfig{Policy: autoPolicy, MinServers: p.autoMin},
		Scenario:        scenario,
	}
	return cfg, cfg.Validate()
}

// resolveCalibration materialises the -calib flag: empty keeps the uniform
// scalars, "default" loads the committed full-catalogue table (no
// cycle-level cost), and any other value is an on-disk cache path covering
// exactly the trace's (service, batch) pairings — served from the file
// when its content hash matches the inputs, rebuilt from the cycle-level
// model (minutes of simulation) and written back on a miss.
func resolveCalibration(arg string, clients []loadgen.Client) (*calib.Table, error) {
	switch arg {
	case "":
		return nil, nil
	case "default":
		return calib.Default()
	}
	svcSet, batchSet := map[string]bool{}, map[string]bool{}
	for _, c := range clients {
		svcSet[c.Service] = true
		batchSet[fleet.BatchPairing(c)] = true
	}
	in := calib.Inputs{
		Services: sortedKeys(svcSet), Batches: sortedKeys(batchSet),
		BSkew: calib.DefaultBSkew, QSkew: calib.DefaultQSkew,
		Spec: sampling.Standard(),
	}
	return calib.Cached(arg, in)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// failoverScenario is the failover trace's default event list: a quarter
// of the servers (at least one) fails a third of the way through the
// horizon and returns at two thirds, search picks up a 1.3× redirected
// surge while the capacity is out, and the last quarter of the fleet is
// an older generation running at 85% performance.
func failoverScenario(servers, windows int) loadgen.Scenario {
	failed := servers / 4
	if failed < 1 {
		failed = 1
	}
	down, up := windows/3, 2*windows/3
	var evs []loadgen.Event
	for s := 0; s < failed; s++ {
		evs = append(evs,
			loadgen.Event{Kind: loadgen.EventDrain, Window: down, Server: s},
			loadgen.Event{Kind: loadgen.EventRestore, Window: up, Server: s},
		)
	}
	if down < up {
		evs = append(evs, loadgen.Event{
			Kind: loadgen.EventSurge, Window: down, Until: up, Client: "search", Factor: 1.3,
		})
	}
	for s := servers - servers/4; s < servers; s++ {
		evs = append(evs, loadgen.Event{Kind: loadgen.EventPerf, Server: s, Factor: 0.85})
	}
	return loadgen.Scenario{Events: evs}
}

// formatFleetResult renders the study (without wall-clock timing, so the
// output is reproducible and golden-testable) in one layout: the
// fleet-wide tail, engine and schedule lines appear on every run, and
// only a calibrated run adds its calibration block.
func formatFleetResult(p fleetParams, cfg fleet.Config, res fleet.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== fleet: %d servers × %d cores = %d SMT cores, %s traffic, %.0fh ==\n",
		p.servers, p.cores, res.Cores, p.trace, p.hours)
	fmt.Fprintf(&b, "policy %s", res.Policy)
	if res.Autoscale != fleet.AutoscaleOff {
		fmt.Fprintf(&b, ", autoscale %s", res.Autoscale)
	}
	if n := len(cfg.Scenario.Events); n > 0 {
		evs := make([]string, n)
		for i, e := range cfg.Scenario.Events {
			evs[i] = e.String()
		}
		fmt.Fprintf(&b, ", %d events: %s", n, strings.Join(evs, ","))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-10s %-16s %-9s %6s %12s %12s %12s %10s\n",
		"client", "service", "slo", "cores", "p99 (ms)", "p99.9 (ms)", "violations", "B hours")
	for _, cm := range res.Clients {
		fmt.Fprintf(&b, "%-10s %-16s %-9s %6d %12.1f %12.1f %7d/%-5d %10.0f\n",
			cm.Client, cm.Service, cm.SLO, cm.Cores, cm.P99Ms, cm.P999Ms,
			cm.ViolationWindows, cm.CoreWindows, cm.EngagedCoreHours)
	}
	fmt.Fprintf(&b, "fleet-wide tail over all serving core-windows: p99 %.1f ms, p99.9 %.1f ms (%s estimator)\n",
		res.FleetP99Ms, res.FleetP999Ms, res.TailEstimator)
	serving := res.Cores*res.Windows - res.DrainedCoreWindows - res.ParkedCoreWindows - res.IdleCoreWindows
	pct := func(n int) float64 {
		if serving == 0 {
			return 0
		}
		return 100 * float64(n) / float64(serving)
	}
	fmt.Fprintf(&b, "engine %s: %d of %d serving core-windows answered analytically (%.1f%%), %d coalesced (%.1f%%), %d distinct analytic solves\n",
		res.Engine, res.AnalyticCoreWindows, serving, pct(res.AnalyticCoreWindows),
		res.CohortCoreWindows, pct(res.CohortCoreWindows), res.AnalyticSolves)
	if res.CalibrationHash != "" && cfg.Calibration != nil {
		fmt.Fprintf(&b, "\ncalibration %.12s (cycle-level table) — per-client colocation deltas vs equal partitioning:\n",
			res.CalibrationHash)
		fmt.Fprintf(&b, "%-10s %-14s %9s %9s %9s %16s\n",
			"client", "batch pairing", "B batch", "B LS cost", "Q batch", "batch gained (h)")
		for _, cm := range res.Clients {
			p, _ := cfg.Calibration.Pair(cm.Service, cm.Batch)
			fmt.Fprintf(&b, "%-10s %-14s %+8.1f%% %+8.1f%% %+8.1f%% %16.1f\n",
				cm.Client, cm.Batch, 100*p.B.BatchSpeedup, 100*p.B.LSSlowdown,
				100*p.Q.BatchSpeedup, cm.BatchCoreHoursGained)
		}
	}
	fmt.Fprintf(&b, "\nengaged %.0f of %.0f core-hours (%.0f%%), %d controller switches\n",
		res.EngagedCoreHours, res.TotalCoreHours, 100*res.EngagedCoreHours/res.TotalCoreHours,
		res.Switches)
	fmt.Fprintf(&b, "batch core-hours gained vs equal partitioning: %.0f (%+.1f%%)\n",
		res.BatchCoreHoursGained, 100*res.BatchGain)
	fmt.Fprintf(&b, "schedule: %d migration, %d drained, %d parked, %d idle core-windows\n",
		res.Migrations, res.DrainedCoreWindows, res.ParkedCoreWindows, res.IdleCoreWindows)
	return b.String()
}

// formatDecisionTrace renders the decision-trace report block: the
// horizon's rebalance/migration totals, the counterfactual regret summary
// when the evaluator ran, and one row per *active* window — a window where
// the allocator wanted to move cores (rebalanced or suppressed) — with the
// per-client allocation transition and the signals that drove it. Quiet
// windows (no desired moves) are elided: a week has thousands of them and
// they all say "nothing happened".
func formatDecisionTrace(res fleet.Result) string {
	var b strings.Builder
	rebalances, forced, suppressed, moves, migrations := 0, 0, 0, 0, 0
	cumRegret, regretFree := 0.0, 0
	hasCF := false
	for _, d := range res.DecisionTrace {
		if d.Rebalanced {
			rebalances++
		}
		if d.Forced {
			forced++
		}
		if d.Suppressed {
			suppressed++
		}
		moves += d.Moves
		migrations += d.Migrations
		if d.Counterfactual != nil {
			hasCF = true
			cumRegret += d.Counterfactual.Regret
			if d.Counterfactual.Regret == 0 {
				regretFree++
			}
		}
	}
	fmt.Fprintf(&b, "\ndecision trace (%d windows): %d rebalances (%d forced, %d suppressed), %d desired core-moves, %d migration core-windows\n",
		len(res.DecisionTrace), rebalances, forced, suppressed, moves, migrations)
	if hasCF {
		fmt.Fprintf(&b, "counterfactual: cumulative regret %.1f violation core-windows; chosen assignment was best in %d/%d windows\n",
			cumRegret, regretFree, len(res.DecisionTrace))
	}
	active := 0
	for _, d := range res.DecisionTrace {
		if d.Moves == 0 {
			continue
		}
		active++
		action := "rebalance"
		if d.Suppressed {
			action = "suppressed"
		}
		if d.Forced && d.Rebalanced {
			action = "rebalance(forced)"
		}
		fmt.Fprintf(&b, "win %-4d %-17s %2d moves %2d migr", d.Window, action, d.Moves, d.Migrations)
		if d.Counterfactual != nil {
			fmt.Fprintf(&b, " regret %4.1f", d.Counterfactual.Regret)
		}
		for ci, cd := range d.Clients {
			name := "?"
			if ci < len(res.Clients) {
				name = res.Clients[ci].Client
			}
			delta := "="
			if cd.Gained > 0 {
				delta = fmt.Sprintf("+%d", cd.Gained)
			} else if cd.Lost > 0 {
				delta = fmt.Sprintf("-%d", cd.Lost)
			}
			fmt.Fprintf(&b, " | %s %d(%s) w=%.2f viol=%d slack=%+.2f",
				name, cd.Cores, delta, cd.Weight, cd.Violations, cd.Slack)
		}
		b.WriteString("\n")
	}
	if active == 0 {
		b.WriteString("no windows with desired core-moves over the horizon\n")
	}
	return b.String()
}

// formatWindowTrace renders the per-window fleet series collected at each
// window barrier: the fleet-wide core partition and, per client, the cores
// held, the p99 over its core tails and its violating core-windows — the
// same observation records the closed-loop scheduler consumed online.
func formatWindowTrace(res fleet.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\nwindow trace (%d windows):\n", len(res.WindowTrace))
	fmt.Fprintf(&b, "%-4s %5s %5s %5s %5s %5s %5s %5s %6s", "win", "serve", "drain", "park", "idle", "B", "viol", "migr", "cohort")
	for _, cm := range res.Clients {
		fmt.Fprintf(&b, " | %-20s", cm.Client+" c/p99/viol")
	}
	b.WriteString("\n")
	for _, o := range res.WindowTrace {
		fmt.Fprintf(&b, "%-4d %5d %5d %5d %5d %5d %5d %5d %6d",
			o.Window, o.ServingCores, o.DrainedCores, o.ParkedCores, o.IdleCores,
			o.BCores, o.Violations, o.Migrations, o.CohortCores)
		for _, co := range o.Clients {
			fmt.Fprintf(&b, " | %4d %10.1f %4d", co.Cores, co.TailP99Ms, co.Violations)
		}
		b.WriteString("\n")
	}
	return b.String()
}
