package main

import (
	"flag"
	"path/filepath"
	"testing"

	"stretch/internal/fleet"
	"stretch/internal/loadgen"
	"stretch/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenParams is a small but non-trivial fleet: big enough for the
// failover scenario to drain a whole server and for every client to hold
// multiple cores, small enough to keep the test fast. It pins the exact
// estimator, the accuracy reference; histogram cases override it.
func goldenParams(trace, policy string) fleetParams {
	return fleetParams{
		servers: 4, cores: 4, trace: trace, policy: policy,
		estimator: "exact",
		hours:     6, wph: 4, windowReq: 150, seed: 1,
		bSpeedup: 0.13, lsSlowdown: 0.07,
	}
}

// TestFleetGolden locks the seed-1 stretchsim -fleet output for every
// trace (and each scheduler policy on the mixed trace) against committed
// golden files, so refactors cannot silently shift the paper-facing
// numbers. Run with -update to rebless after an intentional change. The
// feedback failover case runs the full 24h day: the closed loop only has
// violations to react to once the diurnal peak is in the horizon. Cases
// with estimator "histogram" lock the mergeable-histogram tail path; the
// others lock the exact estimator.
func TestFleetGolden(t *testing.T) {
	cases := []struct {
		trace, policy string
		hours         float64
		estimator     string
		calib         string
		autoscale     string
		engine        string
	}{
		{"websearch", "static", 0, "", "", "", ""},
		{"video", "static", 0, "", "", "", ""},
		{"mixed", "static", 0, "", "", "", ""},
		{"mixed", "proportional", 0, "", "", "", ""},
		{"mixed", "p2c", 0, "", "", "", ""},
		{"failover", "proportional", 0, "", "", "", ""},
		{"mixed", "feedback", 0, "", "", "", ""},
		{"failover", "feedback", 24, "", "", "", ""},
		{"mixed", "static", 0, "histogram", "", "", ""},
		{"mixed", "feedback", 0, "histogram", "", "", ""},
		{"failover", "feedback", 24, "histogram", "", "", ""},
		// Calibrated runs consume the committed default table: per-client
		// (service, batch) deltas from the cycle-level model, locked with
		// the per-client calibrated batch-speedup block in the report.
		{"mixed", "static", 0, "", "default", "", ""},
		{"failover", "feedback", 24, "histogram", "default", "", ""},
		// The autoscaled day: the util policy parks off-peak capacity and
		// pays warm-up migrations on the way back up, locked end to end —
		// policy echo, parked core-windows in the schedule line and all.
		{"mixed", "feedback", 24, "histogram", "", "util", ""},
		// Auto-engine runs lock the analytic fast path's classifier output:
		// the engine line reports how many serving core-windows were
		// answered analytically and coalesced and how many distinct solves
		// it took, and the fleet numbers must hold steady against the
		// discrete goldens above.
		{"mixed", "feedback", 24, "histogram", "", "", "auto"},
		{"failover", "feedback", 24, "histogram", "", "", "auto"},
	}
	for _, tc := range cases {
		name := tc.trace + "_" + tc.policy
		if tc.estimator != "" {
			name += "_" + tc.estimator
		}
		if tc.calib != "" {
			name += "_calibrated"
		}
		if tc.autoscale != "" {
			name += "_autoscale_" + tc.autoscale
		}
		if tc.engine != "" {
			name += "_" + tc.engine
		}
		t.Run(name, func(t *testing.T) {
			p := goldenParams(tc.trace, tc.policy)
			if tc.hours != 0 {
				p.hours = tc.hours
			}
			if tc.estimator != "" {
				p.estimator = tc.estimator
			}
			p.calib = tc.calib
			p.autoscale = tc.autoscale
			p.engine = tc.engine
			cfg, err := buildFleetConfig(&p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := fleet.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := formatFleetResult(p, cfg, res)
			checkGolden(t, filepath.Join("testdata", name+".golden"), []byte(got))
		})
	}
}

// TestFleetGoldenRerouting sanity-checks the scenario behind the failover
// golden: the drained server's load visibly reroutes — the surviving
// cores' violation pressure and the schedule's drained count must be
// consistent with one server out for a third of the horizon.
func TestFleetGoldenRerouting(t *testing.T) {
	p := goldenParams("failover", "proportional")
	cfg, err := buildFleetConfig(&p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	windows := int(p.hours * float64(p.wph))
	down, up := windows/3, 2*windows/3
	wantDrained := p.cores * (up - down) // one server of 4 cores
	if res.DrainedCoreWindows != wantDrained {
		t.Fatalf("drained core-windows %d, want %d", res.DrainedCoreWindows, wantDrained)
	}
	if res.Migrations == 0 {
		t.Fatal("failover scenario scheduled no migrations")
	}
	// No offered load is dropped: every client still gets served windows
	// on the surviving cores throughout the drain.
	total := 0
	for _, cm := range res.Clients {
		total += cm.CoreWindows
	}
	if want := res.Cores*windows - res.DrainedCoreWindows - res.IdleCoreWindows; total != want {
		t.Fatalf("serving core-windows %d, want %d", total, want)
	}
}

// TestFeedbackBeatsProportionalOnFailover is the closed-loop acceptance
// check: over the full failover day (a quarter of the servers out while
// search absorbs a redirected surge), reacting to measured violations must
// beat reacting to offered load alone — fewer QoS-violation core-windows
// at equal-or-better batch core-hours gained. The absolute numbers are
// locked by testdata/failover_feedback.golden; this test locks the
// relation.
func TestFeedbackBeatsProportionalOnFailover(t *testing.T) {
	run := func(policy string) fleet.Result {
		t.Helper()
		p := goldenParams("failover", policy)
		p.hours = 24
		cfg, err := buildFleetConfig(&p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fleet.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	prop := run("proportional")
	fb := run("feedback")
	if prop.ViolationWindows == 0 {
		t.Fatal("failover day has no violations under proportional; the comparison is vacuous")
	}
	if fb.ViolationWindows >= prop.ViolationWindows {
		t.Errorf("feedback violated %d core-windows, want fewer than proportional's %d",
			fb.ViolationWindows, prop.ViolationWindows)
	}
	if fb.BatchCoreHoursGained < prop.BatchCoreHoursGained {
		t.Errorf("feedback gained %.1f batch core-hours < proportional's %.1f",
			fb.BatchCoreHoursGained, prop.BatchCoreHoursGained)
	}
}

// TestWindowTraceOutput sanity-checks the -window-trace rendering: one row
// per window plus the two header lines.
func TestWindowTraceOutput(t *testing.T) {
	p := goldenParams("mixed", "proportional")
	cfg, err := buildFleetConfig(&p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	windows := int(p.hours * float64(p.wph))
	if len(res.WindowTrace) != windows {
		t.Fatalf("window trace has %d entries, want %d", len(res.WindowTrace), windows)
	}
	out := formatWindowTrace(res)
	lines := 0
	for _, c := range out {
		if c == '\n' {
			lines++
		}
	}
	if want := windows + 3; lines != want {
		t.Fatalf("window trace rendered %d lines, want %d:\n%s", lines, want, out)
	}
}

func TestBuildFleetConfigRejectsBadInput(t *testing.T) {
	bad := []func(*fleetParams){
		func(p *fleetParams) { p.trace = "nope" },
		func(p *fleetParams) { p.policy = "nope" },
		func(p *fleetParams) { p.events = "drain:banana" },
		func(p *fleetParams) { p.hours = 0 },
		func(p *fleetParams) { p.windowReq = 0 },
		func(p *fleetParams) { p.windowReq = -1 },
		func(p *fleetParams) { p.estimator = "nope" },
		func(p *fleetParams) { p.engine = "nope" },
		func(p *fleetParams) { p.traceLevel = "nope" },
		func(p *fleetParams) { p.counterfactualK = -1 },
		func(p *fleetParams) { p.counterfactualK = 2 }, // needs -trace-level
		func(p *fleetParams) { p.servers = 0 },
		func(p *fleetParams) { p.bSpeedup = -0.1 },
		func(p *fleetParams) { p.lsSlowdown = 1.5 },
		func(p *fleetParams) { p.servers, p.autoscale, p.autoMin = 2, "util", 3 },
		func(p *fleetParams) { p.autoMin = 3 },  // with autoscaling off
		func(p *fleetParams) { p.autoMin = -1 }, // likewise
	}
	for i, mutate := range bad {
		p := goldenParams("mixed", "static")
		mutate(&p)
		if _, err := buildFleetConfig(&p); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// Events parse and validate against the fleet.
	p := goldenParams("mixed", "proportional")
	p.events = "drain:4:0,restore:12:0,surge:6-12:video:1.5,perf:3:0.9"
	cfg, err := buildFleetConfig(&p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Scenario.Events) != 4 {
		t.Fatalf("parsed %d events", len(cfg.Scenario.Events))
	}
	if _, err := fleet.Run(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSimulatedRequestsSkipsCoalescedWindows: the -fleet footer counts
// only requests the discrete simulator ran. On a discrete run whose second
// client is routed no load in three windows, the coalesced core-windows
// are exactly those zero-rate ones, and they simulate nothing.
func TestSimulatedRequestsSkipsCoalescedWindows(t *testing.T) {
	const windowReq = 150
	cfg := fleet.Config{
		Servers: 3, CoresPerServer: 4,
		Traffic: loadgen.Traffic{
			Windows: 10, WindowSec: 300,
			Clients: []loadgen.Client{
				{Name: "search", Service: workload.WebSearch, Fraction: 0.5,
					Spec: loadgen.Spec{Shape: loadgen.Constant{Rate: 3000}}},
				{Name: "kv", Service: workload.DataServing, Fraction: 0.5,
					Spec: loadgen.Spec{Shape: loadgen.Replay{Rates: []float64{6000, 6000, 0, 0, 6000, 6000, 6000, 0, 6000, 6000}}}},
			},
		},
		Engine: fleet.EngineDiscrete, WindowRequests: windowReq, Seed: 7,
	}
	res, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serving, zeroRate := 0, 0
	for _, o := range res.WindowTrace {
		serving += o.ServingCores
		for _, co := range o.Clients {
			if co.Cores > 0 && co.OfferedRPS == 0 {
				zeroRate += co.Cores
			}
		}
	}
	if zeroRate == 0 || res.CohortCoreWindows != zeroRate {
		t.Fatalf("%d zero-rate and %d coalesced core-windows; want equal and positive", zeroRate, res.CohortCoreWindows)
	}
	if got, want := simulatedRequests(res, windowReq), float64((serving-zeroRate)*windowReq); got != want {
		t.Fatalf("simulatedRequests = %v, want %v (%d serving less %d zero-rate core-windows)",
			got, want, serving, zeroRate)
	}
}
