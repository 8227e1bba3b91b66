package fleet

import (
	"math"
	"reflect"
	"testing"

	"stretch/internal/loadgen"
	"stretch/internal/stats"
	"stretch/internal/workload"
)

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{
		"":             PolicyStatic,
		"static":       PolicyStatic,
		"proportional": PolicyProportional,
		"p2c":          PolicyP2C,
		"feedback":     PolicyFeedback,
	} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
		if s != "" && got.String() != s {
			t.Errorf("round trip %q -> %q", s, got.String())
		}
	}
	if _, err := ParsePolicy("random"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestSchedulerConfigValidate(t *testing.T) {
	if err := (SchedulerConfig{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	bad := []SchedulerConfig{
		{Policy: Policy(9)},
		{Policy: Policy(-1)},
		{Hysteresis: -0.1},
		{Hysteresis: 1},
		{Hysteresis: math.NaN()},
		{FeedbackGain: math.NaN()},
		{FeedbackDecay: math.NaN()},
	}
	for i, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, sc)
		}
	}
}

// TestSchedulerConfigZeroVsUnset pins what the zero values mean: a zero
// Hysteresis gets its default, and NoMinCores is the only way to a zero
// core floor.
func TestSchedulerConfigZeroVsUnset(t *testing.T) {
	if d := (SchedulerConfig{}).WithDefaults(); d.Hysteresis != defaultHysteresis {
		t.Fatalf("zero hysteresis did not default: %+v", d)
	}
	if nz := (SchedulerConfig{Hysteresis: 0.5}).WithDefaults(); nz.Hysteresis != 0.5 {
		t.Fatalf("non-zero hysteresis rewritten: %+v", nz)
	}
	// One idle client beside a loaded one: only the floor keeps it a core.
	floorOf := func(sc SchedulerConfig) int {
		cfg := planConfig(PolicyProportional)
		cfg.Scheduler = sc
		tl := map[string][]float64{"a": make([]float64, 10), "b": make([]float64, 10)}
		for w := range tl["b"] {
			tl["b"][w] = 5000
		}
		st, err := newScheduler(cfg, tl)
		if err != nil {
			t.Fatal(err)
		}
		st.Step(0, nil)
		return st.desired()[0]
	}
	if got := floorOf(SchedulerConfig{Policy: PolicyProportional}); got != minCores {
		t.Fatalf("default floor gave the idle client %d cores, want %d", got, minCores)
	}
	if got := floorOf(SchedulerConfig{Policy: PolicyProportional, NoMinCores: true}); got != 0 {
		t.Fatalf("NoMinCores gave the idle client %d cores, want 0", got)
	}
}

func TestAllocCounts(t *testing.T) {
	// Proportional to demand with a floor of 1.
	got := allocCounts([]float64{3, 1}, []float64{0.5, 0.5}, 8, 1)
	if !reflect.DeepEqual(got, []int{6, 2}) {
		t.Fatalf("proportional: %v", got)
	}
	// Zero demand falls back to fractions.
	got = allocCounts([]float64{0, 0}, []float64{0.75, 0.25}, 8, 1)
	if !reflect.DeepEqual(got, []int{6, 2}) {
		t.Fatalf("fraction fallback: %v", got)
	}
	// Floors hold even for zero-demand clients.
	got = allocCounts([]float64{10, 0}, []float64{0.5, 0.5}, 8, 2)
	if got[1] != 2 || got[0]+got[1] != 8 {
		t.Fatalf("floor: %v", got)
	}
	// Degraded fleet with fewer cores than clients×floor lowers the floor.
	got = allocCounts([]float64{1, 1, 1}, []float64{1, 1, 1}, 2, 1)
	if got[0]+got[1]+got[2] != 2 {
		t.Fatalf("degraded: %v", got)
	}
	// Every in-service core is allocated.
	got = allocCounts([]float64{0.01, 0.02}, []float64{0.1, 0.1}, 7, 1)
	if got[0]+got[1] != 7 {
		t.Fatalf("left cores idle: %v", got)
	}
	// Zero demand AND zero fractions: the d/sum shares would all be NaN
	// (0/0), making the remainder sort arbitrary. The guard splits evenly.
	got = allocCounts([]float64{0, 0}, []float64{0, 0}, 8, 1)
	if !reflect.DeepEqual(got, []int{4, 4}) {
		t.Fatalf("zero demand, zero fractions: %v", got)
	}
	// Odd spare cores land on the lowest-index clients, deterministically.
	got = allocCounts([]float64{0, 0, 0}, []float64{0, 0, 0}, 8, 1)
	if !reflect.DeepEqual(got, []int{3, 3, 2}) {
		t.Fatalf("zero demand odd spare: %v", got)
	}
}

// TestDrainRestoreNoMigrationsUnderStatic is the regression test for the
// restored-server penalty bug: under PolicyStatic nothing ever changes
// ownership, so a server draining and restoring must produce zero Migrated
// flags across the whole horizon — the restored cores resume the client
// they already served. (The old scheduler compared against a prev array
// that the drain had overwritten with the drained sentinel, so the restore
// window wrongly paid the migration penalty.)
func TestDrainRestoreNoMigrationsUnderStatic(t *testing.T) {
	cfg := planConfig(PolicyStatic)
	cfg.Scenario = loadgen.Scenario{Events: []loadgen.Event{
		{Kind: loadgen.EventDrain, Window: 3, Server: 0},
		{Kind: loadgen.EventRestore, Window: 7, Server: 0},
	}}
	p := mustPlan(t, cfg)
	for c := 0; c < 8; c++ {
		for w := 0; w < 10; w++ {
			if p.migrated[c][w] {
				t.Fatalf("core %d window %d pays a migration penalty under static ownership", c, w)
			}
		}
	}
	// The full closed-loop engine agrees, independently of the worker
	// count (the -race CI job runs this).
	run := func(workers int) Result {
		c := cfg
		c.Workers = workers
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	if base.Migrations != 0 {
		t.Fatalf("static drain/restore run reports %d migrations, want 0", base.Migrations)
	}
	if base.DrainedCoreWindows != 8 {
		t.Fatalf("drained core-windows %d != 8", base.DrainedCoreWindows)
	}
	for _, workers := range []int{5, 16} {
		if got := run(workers); !reflect.DeepEqual(base, got) {
			t.Fatalf("%d workers diverged from 1 worker", workers)
		}
	}
}

// planConfig is a small two-client fleet for schedule-level tests.
func planConfig(policy Policy) Config {
	return Config{
		Servers: 4, CoresPerServer: 2,
		Traffic: loadgen.Traffic{
			Windows: 10, WindowSec: 300,
			Clients: []loadgen.Client{
				{Name: "a", Service: workload.WebSearch, Fraction: 0.5,
					Spec: loadgen.Spec{Shape: loadgen.Constant{Rate: 400}}},
				{Name: "b", Service: workload.WebSearch, Fraction: 0.5,
					Spec: loadgen.Spec{Shape: loadgen.Ramp{StartRPS: 100, TargetRPS: 2400}}},
			},
		},
		BatchSpeedupB: 0.13, LSSlowdownB: 0.07,
		WindowRequests: 100, Seed: 1,
		Scheduler: SchedulerConfig{Policy: policy},
	}
}

// testPlan collects a stepper's full-horizon schedule into the shape the
// old precomputed plan had, for schedule-level assertions.
type testPlan struct {
	client             [][]int16
	rate               [][]float64
	migrated           [][]bool
	migrations         int
	drainedCoreWindows int
	parkedCoreWindows  int
	idleCoreWindows    int
}

// mustPlan drives the scheduler over the whole horizon via the
// same path Run uses (open loop: no observations) and records the result.
func mustPlan(t *testing.T, cfg Config) *testPlan {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	tls, err := cfg.Traffic.Timelines(cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newScheduler(cfg, tls)
	if err != nil {
		t.Fatal(err)
	}
	nCores := cfg.Servers * cfg.CoresPerServer
	p := &testPlan{
		client:   make([][]int16, nCores),
		rate:     make([][]float64, nCores),
		migrated: make([][]bool, nCores),
	}
	for c := 0; c < nCores; c++ {
		p.client[c] = make([]int16, cfg.Traffic.Windows)
		p.rate[c] = make([]float64, cfg.Traffic.Windows)
		p.migrated[c] = make([]bool, cfg.Traffic.Windows)
	}
	for w := 0; w < cfg.Traffic.Windows; w++ {
		asg := st.Step(w, nil)
		for c := 0; c < nCores; c++ {
			p.client[c][w] = asg.Client[c]
			p.rate[c][w] = asg.Rate[c]
			p.migrated[c][w] = asg.Migrated[c]
			switch {
			case asg.Client[c] == coreDrained:
				p.drainedCoreWindows++
			case asg.Client[c] == coreParked:
				p.parkedCoreWindows++
			case asg.Client[c] == coreIdle:
				p.idleCoreWindows++
			default:
				if asg.Migrated[c] {
					p.migrations++
				}
			}
		}
	}
	return p
}

func TestStaticPlanKeepsOwnership(t *testing.T) {
	p := mustPlan(t, planConfig(PolicyStatic))
	for c := 0; c < 8; c++ {
		want := int16(0)
		if c >= 4 {
			want = 1
		}
		for w := 0; w < 10; w++ {
			if p.client[c][w] != want {
				t.Fatalf("core %d window %d: client %d", c, w, p.client[c][w])
			}
		}
	}
	if p.migrations != 0 || p.drainedCoreWindows != 0 || p.idleCoreWindows != 0 {
		t.Fatalf("static uneventful plan has churn: %+v", p)
	}
	// Even split of each client's rate.
	if p.rate[0][0] != p.rate[3][0] || p.rate[0][0] != 100 {
		t.Fatalf("client a per-core rate %v", p.rate[0][0])
	}
}

func TestProportionalPlanFollowsDemand(t *testing.T) {
	p := mustPlan(t, planConfig(PolicyProportional))
	countB := func(w int) int {
		n := 0
		for c := 0; c < 8; c++ {
			if p.client[c][w] == 1 {
				n++
			}
		}
		return n
	}
	// Client b ramps from 100 to 2400 rps against a's constant 400: its
	// allocation must grow over the horizon.
	if first, last := countB(0), countB(9); last <= first {
		t.Fatalf("ramping client kept %d -> %d cores", first, last)
	}
	if p.migrations == 0 {
		t.Fatal("elastic reallocation recorded no migrations")
	}
	// Every in-service core serves someone.
	if p.idleCoreWindows != 0 {
		t.Fatalf("%d idle core-windows with subscribed traffic", p.idleCoreWindows)
	}
	// Conservation: each window's total routed rate equals offered load.
	tls, _ := planConfig(PolicyProportional).Traffic.Timelines(1)
	for w := 0; w < 10; w++ {
		total := 0.0
		for c := 0; c < 8; c++ {
			total += p.rate[c][w]
		}
		want := tls["a"][w] + tls["b"][w]
		if math.Abs(total-want) > 1e-9*want {
			t.Fatalf("window %d routes %v of %v offered", w, total, want)
		}
	}
}

func TestHysteresisLimitsChurn(t *testing.T) {
	cfg := planConfig(PolicyProportional)
	cfg.Scheduler.Hysteresis = 0.9 // nothing short of a drain moves cores
	p := mustPlan(t, cfg)
	if p.migrations != 0 {
		t.Fatalf("migrations %d under maximal hysteresis", p.migrations)
	}
	cfg.Scheduler.Hysteresis = 1e-12 // follow demand every window
	loose := mustPlan(t, cfg)
	if loose.migrations == 0 {
		t.Fatal("no migrations with hysteresis disabled")
	}
}

func TestMinCoreFloorHolds(t *testing.T) {
	cfg := planConfig(PolicyProportional)
	// Client a's demand is dwarfed by b's: floor must still hold.
	cfg.Traffic.Clients[0].Spec.Shape = loadgen.Constant{Rate: 1}
	cfg.Traffic.Clients[1].Spec.Shape = loadgen.Constant{Rate: 5000}
	p := mustPlan(t, cfg)
	for w := 0; w < 10; w++ {
		n := 0
		for c := 0; c < 8; c++ {
			if p.client[c][w] == 0 {
				n++
			}
		}
		if n < minCores {
			t.Fatalf("window %d: client a holds %d cores < floor %d", w, n, minCores)
		}
	}
	// A wider floor is allocCounts' business alone: a negligible client
	// still gets two of eight cores, and every core is handed out.
	got := allocCounts([]float64{1e-6, 1}, []float64{0.5, 0.5}, 8, 2)
	if got[0] != 2 || got[0]+got[1] != 8 {
		t.Fatalf("allocCounts with floor 2 = %v, want [2 6]", got)
	}
	// A degraded fleet lowers the floor to what it can afford.
	if got := allocCounts([]float64{1e-6, 1}, []float64{0.5, 0.5}, 3, 2); got[0] != 1 || got[0]+got[1] != 3 {
		t.Fatalf("allocCounts with floor 2 on 3 cores = %v, want [1 2]", got)
	}
}

func TestDrainReroutesLoad(t *testing.T) {
	for _, policy := range []Policy{PolicyStatic, PolicyProportional, PolicyP2C} {
		cfg := planConfig(policy)
		cfg.Scenario = loadgen.Scenario{Events: []loadgen.Event{
			{Kind: loadgen.EventDrain, Window: 3, Server: 0},
			{Kind: loadgen.EventRestore, Window: 7, Server: 0},
		}}
		p := mustPlan(t, cfg)
		// Server 0's cores (0,1) are out of service during [3,7).
		for _, c := range []int{0, 1} {
			for w := 3; w < 7; w++ {
				if p.client[c][w] != coreDrained {
					t.Fatalf("%v: core %d window %d not drained: %d", policy, c, w, p.client[c][w])
				}
				if p.rate[c][w] != 0 {
					t.Fatalf("%v: drained core %d window %d still gets rate %v", policy, c, w, p.rate[c][w])
				}
			}
		}
		if p.drainedCoreWindows != 2*4 {
			t.Fatalf("%v: drained core-windows %d != 8", policy, p.drainedCoreWindows)
		}
		// The drained load visibly reroutes: surviving cores carry more
		// than before the drain, and offered load is conserved.
		tls, _ := cfg.Traffic.Timelines(cfg.Seed)
		for w := 3; w < 7; w++ {
			total := 0.0
			for c := 0; c < 8; c++ {
				total += p.rate[c][w]
			}
			want := tls["a"][w] + tls["b"][w]
			if math.Abs(total-want) > 1e-9*want {
				t.Fatalf("%v: window %d drops load: routes %v of %v", policy, w, total, want)
			}
		}
		// Client a's survivors during the static drain carry double rate.
		if policy == PolicyStatic {
			if p.rate[2][4] <= p.rate[2][2] {
				t.Fatalf("static: surviving core rate %v not above pre-drain %v", p.rate[2][4], p.rate[2][2])
			}
		}
	}
}

func TestP2CRoutesUnevenButConserves(t *testing.T) {
	p := mustPlan(t, planConfig(PolicyP2C))
	// Find client a's cores at window 0 and check p2c spread them unevenly
	// while conserving total load.
	var rates []float64
	total := 0.0
	for c := 0; c < 8; c++ {
		if p.client[c][0] == 0 {
			rates = append(rates, p.rate[c][0])
			total += p.rate[c][0]
		}
	}
	if len(rates) < 2 {
		t.Fatalf("client a has %d cores", len(rates))
	}
	if math.Abs(total-400) > 1e-9*400 {
		t.Fatalf("p2c drops load: %v of 400", total)
	}
	allEqual := true
	for _, r := range rates[1:] {
		if r != rates[0] {
			allEqual = false
		}
	}
	if allEqual {
		t.Fatal("p2c produced a perfectly even split; expected routing imbalance")
	}
}

func TestPerfGenerationsSlowTails(t *testing.T) {
	cfg := planConfig(PolicyStatic)
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow := planConfig(PolicyStatic)
	// Client a's two servers (cores 0-3) are an older generation.
	slow.Scenario = loadgen.Scenario{Events: []loadgen.Event{
		{Kind: loadgen.EventPerf, Server: 0, Factor: 0.6},
		{Kind: loadgen.EventPerf, Server: 1, Factor: 0.6},
	}}
	res, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clients[0].P99Ms <= base.Clients[0].P99Ms {
		t.Fatalf("older generation did not slow client a: %v vs %v",
			res.Clients[0].P99Ms, base.Clients[0].P99Ms)
	}
}

func TestSurgeRaisesOfferedLoad(t *testing.T) {
	cfg := planConfig(PolicyStatic)
	cfg.Scenario = loadgen.Scenario{Events: []loadgen.Event{
		{Kind: loadgen.EventSurge, Window: 2, Until: 5, Client: "a", Factor: 2},
	}}
	p := mustPlan(t, cfg)
	if p.rate[0][3] != 2*p.rate[0][1] {
		t.Fatalf("surge window rate %v vs pre-surge %v", p.rate[0][3], p.rate[0][1])
	}
}

// TestProportionalBeatsStaticOnMixedDay is the headline acceptance check:
// on a mixed diurnal day, elastic reallocation must harvest at least as
// many batch core-hours as the static split at no more QoS-violation
// windows.
func TestProportionalBeatsStaticOnMixedDay(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-request comparison")
	}
	const (
		servers, cores = 16, 8
		wph            = 4
		windows        = 24 * wph
	)
	nCores := float64(servers * cores)
	mk := func(policy Policy) Config {
		return Config{
			Servers: servers, CoresPerServer: cores,
			Traffic: loadgen.Traffic{
				Windows: windows, WindowSec: 3600.0 / wph,
				Clients: []loadgen.Client{
					{Name: "search", Service: workload.WebSearch, Fraction: 0.5,
						SLO: loadgen.SLOStrict,
						Spec: loadgen.Spec{Shape: loadgen.Diurnal{
							HourLoad: loadgen.WebSearchDay(),
							// ~0.85×saturation at peak on the static share.
							PeakRPS: 800 * nCores * 0.5, Smooth: true,
						}, Poisson: true}},
					{Name: "video", Service: workload.MediaStreaming, Fraction: 0.3,
						SLO: loadgen.SLORelaxed,
						Spec: loadgen.Spec{Shape: loadgen.Diurnal{
							HourLoad: loadgen.VideoDay(),
							PeakRPS:  170 * nCores * 0.3, Smooth: true,
						}, Poisson: true}},
					{Name: "kvstore", Service: workload.DataServing, Fraction: 0.2,
						Spec: loadgen.Spec{Shape: loadgen.Burst{
							Base: loadgen.Ramp{StartRPS: 0.3 * 4400 * nCores * 0.2,
								TargetRPS: 0.7 * 4400 * nCores * 0.2},
							Start: windows / 3, Length: wph / 2, Every: windows / 3,
							Magnitude: 1.8,
						}, Poisson: true}},
				},
			},
			BatchSpeedupB: 0.13, LSSlowdownB: 0.07,
			WindowRequests: 200, Seed: 1,
			Scheduler: SchedulerConfig{Policy: policy},
		}
	}
	static, err := Run(mk(PolicyStatic))
	if err != nil {
		t.Fatal(err)
	}
	prop, err := Run(mk(PolicyProportional))
	if err != nil {
		t.Fatal(err)
	}
	if prop.BatchCoreHoursGained < static.BatchCoreHoursGained {
		t.Errorf("proportional gained %.1f batch core-hours < static's %.1f",
			prop.BatchCoreHoursGained, static.BatchCoreHoursGained)
	}
	if prop.ViolationWindows > static.ViolationWindows {
		t.Errorf("proportional violated %d windows > static's %d",
			prop.ViolationWindows, static.ViolationWindows)
	}
}

// --- Determinism: full-Result DeepEqual (including WindowTrace) across
// worker counts for every policy — closed-loop feedback included — with
// and without scenario events, under both tail estimators.

func TestSchedulerDeterministicAcrossWorkerCounts(t *testing.T) {
	scenario := loadgen.Scenario{Events: []loadgen.Event{
		{Kind: loadgen.EventDrain, Window: 2, Server: 1},
		{Kind: loadgen.EventRestore, Window: 6, Server: 1},
		{Kind: loadgen.EventSurge, Window: 4, Until: 8, Client: "b", Factor: 1.5},
		{Kind: loadgen.EventPerf, Server: 3, Factor: 0.85},
	}}
	for _, policy := range []Policy{PolicyStatic, PolicyProportional, PolicyP2C, PolicyFeedback} {
		for _, est := range []stats.TailEstimator{stats.EstimatorExact, stats.EstimatorHistogram} {
			for _, withEvents := range []bool{false, true} {
				cfg := planConfig(policy)
				cfg.Traffic.Clients[0].Spec.Poisson = true
				cfg.Traffic.Clients[1].Spec.Poisson = true
				cfg.TailEstimator = est
				if withEvents {
					cfg.Scenario = scenario
				}
				one := cfg
				one.Workers = 1
				many := cfg
				many.Workers = 8
				a, err := Run(one)
				if err != nil {
					t.Fatalf("%v est=%v events=%v: %v", policy, est, withEvents, err)
				}
				b, err := Run(many)
				if err != nil {
					t.Fatalf("%v est=%v events=%v: %v", policy, est, withEvents, err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%v est=%v events=%v: worker count perturbed the results:\n%+v\nvs\n%+v",
						policy, est, withEvents, a, b)
				}
			}
		}
	}
}
