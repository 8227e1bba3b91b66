package fleet

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"stretch/internal/loadgen"
	"stretch/internal/queueing"
	"stretch/internal/stats"
	"stretch/internal/workload"
)

// lowLoadConfig is a small fleet whose single client runs well below the
// engage threshold the whole horizon: web-search at ~30% of its ~900 rps
// per-core saturation.
func lowLoadConfig() Config {
	return Config{
		Servers: 2, CoresPerServer: 4,
		Traffic: loadgen.Traffic{
			Windows: 12, WindowSec: 300,
			Clients: []loadgen.Client{{
				Name: "search", Service: workload.WebSearch, Fraction: 1,
				Spec: loadgen.Spec{Shape: loadgen.Constant{Rate: 280 * 8}, Poisson: true},
			}},
		},
		BatchSpeedupB: 0.13, LSSlowdownB: 0.07,
		WindowRequests: 300, Seed: 1,
	}
}

func TestFleetGainPositiveBelowEngageThreshold(t *testing.T) {
	res, err := Run(lowLoadConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchGain <= 0 {
		t.Fatalf("batch gain %v must be positive when load sits below the engage threshold", res.BatchGain)
	}
	if res.BatchCoreHoursGained <= 0 {
		t.Fatalf("batch core-hours gained %v must be positive", res.BatchCoreHoursGained)
	}
	// At 30% load the controller should spend nearly the whole horizon in
	// B-mode (the first windows pay the engage hysteresis).
	if res.EngagedCoreHours < 0.7*res.TotalCoreHours {
		t.Fatalf("engaged only %.1f of %.1f core-hours at idle load",
			res.EngagedCoreHours, res.TotalCoreHours)
	}
	if res.ViolationWindows != 0 {
		t.Fatalf("%d QoS violations at 30%% load", res.ViolationWindows)
	}
	if res.Cores != 8 || len(res.Clients) != 1 || res.Clients[0].Cores != 8 {
		t.Fatalf("fleet shape wrong: %+v", res)
	}
	if res.Clients[0].P99Ms <= 0 || res.Clients[0].P999Ms < res.Clients[0].P99Ms {
		t.Fatalf("tail aggregation wrong: p99=%v p99.9=%v", res.Clients[0].P99Ms, res.Clients[0].P999Ms)
	}
}

func TestFleetDeterministicUnderSeed(t *testing.T) {
	a, err := Run(lowLoadConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(lowLoadConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different aggregate metrics")
	}
	diff := lowLoadConfig()
	diff.Seed = 2
	c, err := Run(diff)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Clients[0].P99Ms, c.Clients[0].P99Ms) &&
		reflect.DeepEqual(a.EngagedCoreHours, c.EngagedCoreHours) &&
		a.BatchCoreHoursGained == c.BatchCoreHoursGained {
		t.Fatal("different seeds produced suspiciously identical metrics")
	}
}

func TestFleetIndependentOfWorkerCount(t *testing.T) {
	one := lowLoadConfig()
	one.Workers = 1
	many := lowLoadConfig()
	many.Workers = 7
	a, err := Run(one)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(many)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("worker count perturbed the results")
	}
}

func TestFleetHighLoadEngagesLess(t *testing.T) {
	low, err := Run(lowLoadConfig())
	if err != nil {
		t.Fatal(err)
	}
	hi := lowLoadConfig()
	// ~97% of the ~941 rps per-core saturation: past the knee, where the
	// tail leaves no slack.
	hi.Traffic.Clients[0].Spec.Shape = loadgen.Constant{Rate: 910 * 8}
	high, err := Run(hi)
	if err != nil {
		t.Fatal(err)
	}
	if high.EngagedCoreHours >= low.EngagedCoreHours {
		t.Fatalf("high load engaged %.1f core-hours >= low load's %.1f",
			high.EngagedCoreHours, low.EngagedCoreHours)
	}
	if high.BatchGain >= low.BatchGain {
		t.Fatalf("high load batch gain %v >= low load's %v", high.BatchGain, low.BatchGain)
	}
}

func TestFleetMultiClientAggregation(t *testing.T) {
	cfg := lowLoadConfig()
	cfg.Traffic.Clients = []loadgen.Client{
		{
			Name: "search", Service: workload.WebSearch, Fraction: 0.5, SLO: loadgen.SLOStrict,
			Spec: loadgen.Spec{Shape: loadgen.Constant{Rate: 280 * 4}, Poisson: true},
		},
		{
			Name: "kv", Service: workload.DataServing, Fraction: 0.5,
			Spec: loadgen.Spec{Shape: loadgen.Constant{Rate: 1000 * 4}, Poisson: true},
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clients) != 2 {
		t.Fatalf("%d client aggregates", len(res.Clients))
	}
	if res.Clients[0].Cores+res.Clients[1].Cores != 8 {
		t.Fatalf("core split %d+%d != 8", res.Clients[0].Cores, res.Clients[1].Cores)
	}
	ws := workload.Services()[workload.WebSearch]
	if res.Clients[0].TargetMs != ws.QoSTargetMs*loadgen.SLOStrict.Scale() {
		t.Fatalf("strict SLO target %v", res.Clients[0].TargetMs)
	}
	total := 0
	for _, cm := range res.Clients {
		total += cm.ViolationWindows
	}
	if total != res.ViolationWindows {
		t.Fatal("violation windows do not sum")
	}
}

// TestClientWithZeroCoreWindows pins the edge case of a client squeezed to
// zero core-windows: on a degraded fleet with fewer in-service cores than
// clients the elastic allocation lowers its core floor to zero, so a client
// without offered load gets nothing, and its metrics must report NaN-safe
// zeros rather than panicking on an empty sample.
func TestClientWithZeroCoreWindows(t *testing.T) {
	cfg := lowLoadConfig()
	cfg.Servers, cfg.CoresPerServer = 2, 1
	cfg.Traffic.Clients = []loadgen.Client{
		{
			Name: "busy", Service: workload.WebSearch, Fraction: 0.5,
			Spec: loadgen.Spec{Shape: loadgen.Constant{Rate: 280}, Poisson: true},
		},
		{
			Name: "ghost", Service: workload.DataServing, Fraction: 0.5,
			Spec: loadgen.Spec{Shape: loadgen.Constant{Rate: 1e-12}},
		},
	}
	cfg.Scenario = loadgen.Scenario{Events: []loadgen.Event{{Kind: loadgen.EventDrain, Window: 0, Server: 1}}}
	cfg.Scheduler = SchedulerConfig{Policy: PolicyProportional}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Windows; res.DrainedCoreWindows != want {
		t.Fatalf("drained %d core-windows, want %d (server 1 for the whole horizon)", res.DrainedCoreWindows, want)
	}
	ghost := res.Clients[1]
	if ghost.CoreWindows != 0 {
		t.Fatalf("on one in-service core with ~zero demand the ghost still held %d core-windows", ghost.CoreWindows)
	}
	if ghost.P99Ms != 0 || ghost.P999Ms != 0 {
		t.Fatalf("zero-core-window client reports non-zero tails: p99=%v p99.9=%v", ghost.P99Ms, ghost.P999Ms)
	}
	if math.IsNaN(ghost.P99Ms) || math.IsNaN(ghost.P999Ms) || math.IsNaN(res.BatchGain) {
		t.Fatalf("NaN leaked into metrics: %+v", res)
	}
	if ghost.ViolationWindows != 0 || ghost.EngagedCoreHours != 0 {
		t.Fatalf("zero-core-window client accrued activity: %+v", ghost)
	}
}

// TestWindowTraceConsistency checks the per-window series against the
// aggregate result: per-window violation and core counts must sum to the
// fleet totals, and slack must mirror the measured tails.
func TestWindowTraceConsistency(t *testing.T) {
	cfg := lowLoadConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WindowTrace) != res.Windows {
		t.Fatalf("%d trace entries for %d windows", len(res.WindowTrace), res.Windows)
	}
	viol, serving, drained, parked, idle := 0, 0, 0, 0, 0
	for w, o := range res.WindowTrace {
		if o.Window != w {
			t.Fatalf("trace entry %d labelled window %d", w, o.Window)
		}
		if got := o.ServingCores + o.DrainedCores + o.ParkedCores + o.IdleCores; got != res.Cores {
			t.Fatalf("window %d partitions %d cores, want %d", w, got, res.Cores)
		}
		viol += o.Violations
		serving += o.ServingCores
		drained += o.DrainedCores
		parked += o.ParkedCores
		idle += o.IdleCores
		for ci, co := range o.Clients {
			if co.Cores == 0 {
				continue
			}
			if co.MaxTailMs < co.MeanTailMs || co.TailP99Ms > co.MaxTailMs {
				t.Fatalf("window %d client %d tail summary inconsistent: %+v", w, ci, co)
			}
			// The window's mean monitor slack must agree with the mean
			// tail: slack = (target - tail)/target.
			want := (res.Clients[ci].TargetMs - co.MeanTailMs) / res.Clients[ci].TargetMs
			if diff := co.MeanSlack - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("window %d client %d slack %v, want %v", w, ci, co.MeanSlack, want)
			}
		}
	}
	if viol != res.ViolationWindows {
		t.Fatalf("trace violations %d != aggregate %d", viol, res.ViolationWindows)
	}
	if drained != res.DrainedCoreWindows || parked != res.ParkedCoreWindows || idle != res.IdleCoreWindows {
		t.Fatalf("trace drained/parked/idle %d/%d/%d != aggregate %d/%d/%d",
			drained, parked, idle, res.DrainedCoreWindows, res.ParkedCoreWindows, res.IdleCoreWindows)
	}
	total := 0
	for _, cm := range res.Clients {
		total += cm.CoreWindows
	}
	if serving != total {
		t.Fatalf("trace serving core-windows %d != client sum %d", serving, total)
	}
}

func TestFleetValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Servers = 0 },
		func(c *Config) { c.CoresPerServer = -1 },
		func(c *Config) { c.Traffic.Clients = nil },
		func(c *Config) { c.BatchSpeedupB = -0.1 },
		func(c *Config) { c.LSSlowdownB = 1 },
		func(c *Config) { c.BatchSpeedupB = math.NaN() },
		func(c *Config) { c.BatchSpeedupB = math.Inf(1) },
		func(c *Config) { c.LSSlowdownB = math.NaN() },
		func(c *Config) { c.WindowRequests = -5 },
		func(c *Config) { c.Traffic.Clients[0].Service = "no-such-service" },
		func(c *Config) {
			c.Servers = 1
			c.CoresPerServer = 1
			c.Traffic.Clients = append(c.Traffic.Clients, loadgen.Client{Name: "x", Service: workload.WebSearch, Fraction: 0.0001, Spec: loadgen.Spec{Shape: loadgen.Constant{Rate: 1}}})
		},
	}
	for i, mutate := range bad {
		cfg := lowLoadConfig()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestValidateClientLimit: plans hold client indices as int16 with
// negative sentinels, so Validate accepts math.MaxInt16 clients and
// rejects one more, which would otherwise wrap into a sentinel and lose
// its load. Validate only: a run at this width is not needed to show it.
func TestValidateClientLimit(t *testing.T) {
	withClients := func(n int) Config {
		cfg := lowLoadConfig()
		cfg.Servers, cfg.CoresPerServer = 1<<11, 16 // one core per client at the limit
		cfg.Traffic.Clients = make([]loadgen.Client, n)
		for i := range cfg.Traffic.Clients {
			cfg.Traffic.Clients[i] = loadgen.Client{
				Name: "c" + strconv.Itoa(i), Service: workload.WebSearch, Fraction: 1.0 / (1 << 15),
				Spec: loadgen.Spec{Shape: loadgen.Constant{Rate: 1}},
			}
		}
		return cfg
	}
	if err := withClients(math.MaxInt16).Validate(); err != nil {
		t.Fatalf("%d clients rejected: %v", math.MaxInt16, err)
	}
	err := withClients(math.MaxInt16 + 1).Validate()
	if err == nil || !strings.Contains(err.Error(), "32767") {
		t.Fatalf("%d clients: err = %v, want the client limit", math.MaxInt16+1, err)
	}
}

func TestAssignCores(t *testing.T) {
	mk := func(fracs ...float64) []loadgen.Client {
		out := make([]loadgen.Client, len(fracs))
		for i, f := range fracs {
			out[i] = loadgen.Client{Fraction: f}
		}
		return out
	}
	if got := assignCores(mk(0.5, 0.25, 0.25), 8); !reflect.DeepEqual(got, []int{4, 2, 2}) {
		t.Fatalf("even split: %v", got)
	}
	// Remainders distribute largest-first when fully subscribed.
	got := assignCores(mk(0.5, 0.3, 0.2), 10)
	if got[0]+got[1]+got[2] != 10 {
		t.Fatalf("fully subscribed fleet left cores unassigned: %v", got)
	}
	// A tiny client still gets one core, reclaimed from the largest.
	got = assignCores(mk(0.9, 0.05, 0.05), 10)
	if got[1] < 1 || got[2] < 1 || got[0]+got[1]+got[2] != 10 {
		t.Fatalf("tiny clients starved or fleet oversubscribed: %v", got)
	}
	// Under-subscribed traffic leaves cores idle.
	got = assignCores(mk(0.25), 8)
	if got[0] != 2 {
		t.Fatalf("under-subscribed: %v", got)
	}
}

// TestPeakRPSPerCore probes web-search at the 4000-request anchor the CLI
// and the bench use. Bursts raise the offered work per arrival, so the pool
// saturates at 1/Utilization(cfg, 1, 1) ≈ 859.5 rps, below the burst-free
// Workers×1000/MeanServiceMs ≈ 941 rps. The peak must be a knee below that
// cap (≈ 0.94 of it at seed 1), not the cap itself, which PeakLoad returns
// when a short probe never sees the QoS target break.
func TestPeakRPSPerCore(t *testing.T) {
	p, err := PeakRPSPerCore(workload.WebSearch, 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	sat := 1 / queueing.Utilization(queueing.ForService(workload.Services()[workload.WebSearch]), 1, 1)
	if p < 400 || p > 0.98*sat {
		t.Fatalf("peak per-core rate %v is not a knee below the burst-aware saturation %v", p, sat)
	}
	if _, err := PeakRPSPerCore("nope", 2000, 1); err == nil {
		t.Fatal("unknown service accepted")
	}
}

// TestTailEstimatorHistogramTracksExact is the fleet-level accuracy check:
// the histogram estimator (the default) must reproduce the exact
// estimator's client and fleet-wide tails within the compounded bucket
// resolution — the per-window QoS quantile and the aggregate quantile each
// contribute at most one bucket width of error.
func TestTailEstimatorHistogramTracksExact(t *testing.T) {
	ex := lowLoadConfig()
	ex.TailEstimator = stats.EstimatorExact
	hist := lowLoadConfig() // zero value: EstimatorDefault resolves to histogram
	a, err := Run(ex)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(hist)
	if err != nil {
		t.Fatal(err)
	}
	if a.TailEstimator != stats.EstimatorExact || b.TailEstimator != stats.EstimatorHistogram {
		t.Fatalf("estimator echo wrong: %v / %v", a.TailEstimator, b.TailEstimator)
	}
	// Two quantisation levels compound: per-window QoS quantile plus the
	// aggregate quantile over window tails.
	tol := 2 * 2 * stats.NewTailHistogram().Resolution()
	rel := func(got, want float64) float64 { return math.Abs(got-want) / want }
	for _, pair := range [][2]float64{
		{b.Clients[0].P99Ms, a.Clients[0].P99Ms},
		{b.Clients[0].P999Ms, a.Clients[0].P999Ms},
		{b.FleetP99Ms, a.FleetP99Ms},
		{b.FleetP999Ms, a.FleetP999Ms},
	} {
		if pair[1] <= 0 {
			t.Fatalf("degenerate exact tail %v", pair[1])
		}
		if r := rel(pair[0], pair[1]); r > tol {
			t.Errorf("histogram tail %v vs exact %v: relative error %.3f > %.3f",
				pair[0], pair[1], r, tol)
		}
	}
	// The estimator changes how tails are summarised, never what was
	// simulated: mode decisions at 30% load sit far from any threshold, so
	// the physical aggregates must agree exactly.
	if a.EngagedCoreHours != b.EngagedCoreHours || a.BatchCoreHoursGained != b.BatchCoreHoursGained ||
		a.Switches != b.Switches || a.ViolationWindows != b.ViolationWindows {
		t.Fatalf("estimator perturbed physical aggregates:\n%+v\nvs\n%+v", a, b)
	}
}

// TestFleetWideTailsOrdered checks the new datacenter-level tail report:
// populated under both estimators, with p99.9 at or above p99 and at or
// above every client's share-weighted contribution floor of 0.
func TestFleetWideTailsOrdered(t *testing.T) {
	for _, est := range []stats.TailEstimator{stats.EstimatorExact, stats.EstimatorHistogram} {
		cfg := lowLoadConfig()
		cfg.TailEstimator = est
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.FleetP99Ms <= 0 || res.FleetP999Ms < res.FleetP99Ms {
			t.Fatalf("%v: fleet tails wrong: p99=%v p99.9=%v", est, res.FleetP99Ms, res.FleetP999Ms)
		}
	}
}

func TestFleetRejectsUnknownEstimator(t *testing.T) {
	cfg := lowLoadConfig()
	cfg.TailEstimator = stats.TailEstimator(7)
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown estimator accepted")
	}
}
