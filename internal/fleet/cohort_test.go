package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"stretch/internal/core"
	"stretch/internal/loadgen"
	"stretch/internal/queueing"
	"stretch/internal/stats"
	"stretch/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/equivalence_digests.golden")

// digestGolden holds one sha256 of the full Result per equivalence cell,
// keyed by subtest name. The per-core reference engine generated the
// digests before that engine was deleted, so they are the oracle the
// engine must keep reproducing; a rebless needs a stated cause.
const digestGolden = "testdata/equivalence_digests.golden"

// checked maps each cell checkDigest compared (or recorded under -update)
// in this run to its digest, for TestDigestsCompared.
var checked = map[string]string{}

// resultDigest is a sha256 over the JSON encoding of r — struct fields in
// declaration order, floats in shortest round-trip form — so equal digests
// mean bit-identical Results.
func resultDigest(t *testing.T, r Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// readDigests loads the golden digests; a missing file is an empty set
// only under -update.
func readDigests(t *testing.T) map[string]string {
	t.Helper()
	m := make(map[string]string)
	b, err := os.ReadFile(digestGolden)
	if errors.Is(err, fs.ErrNotExist) && *update {
		return m
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestGolden, line)
		}
		m[name] = sum
	}
	return m
}

// writeDigests rewrites the golden file in name order. Each digest test
// merges its cells into the file under -update, so a filtered run keeps
// the others; TestDigestsCompared rewrites it with exactly the cells a
// full run checked.
func writeDigests(t *testing.T, m map[string]string) {
	t.Helper()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString("# sha256 over the JSON-encoded fleet.Result of each equivalence cell.\n")
	sb.WriteString("# Regenerate: go test ./internal/fleet -run 'TestCohort' -update\n")
	for _, n := range names {
		fmt.Fprintf(&sb, "%s %s\n", n, m[n])
	}
	if err := os.WriteFile(digestGolden, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkDigest compares the subtest's Result against its golden digest, or
// records it under -update.
func checkDigest(t *testing.T, golden map[string]string, res Result) {
	t.Helper()
	got := resultDigest(t, res)
	checked[t.Name()] = got
	if *update {
		golden[t.Name()] = got
		return
	}
	want, ok := golden[t.Name()]
	if !ok {
		t.Fatalf("no golden digest for %s; run with -update", t.Name())
	}
	if got != want {
		t.Errorf("%s: digest %.16s, golden %.16s", t.Name(), got, want)
	}
}

// checkGain cross-checks the batch gain: the per-client gains must sum
// bit-exactly to the fleet total, and the total must match the gain
// rebuilt from WindowTrace — each window's per-core mean BatchRel times
// its serving cores — to within 1e-9 relative.
func checkGain(t *testing.T, r Result) {
	t.Helper()
	sum := 0.0
	for _, cm := range r.Clients {
		sum += cm.BatchCoreHoursGained
	}
	if sum != r.BatchCoreHoursGained {
		t.Fatalf("client gains sum to %v, fleet gain %v", sum, r.BatchCoreHoursGained)
	}
	windowHours := r.WindowSec / 3600
	want := 0.0
	for _, o := range r.WindowTrace {
		for _, co := range o.Clients {
			want += (co.BatchRel - 1) * float64(co.Cores) * windowHours
		}
	}
	if want == 0 || math.Abs(r.BatchCoreHoursGained-want) > 1e-9*math.Abs(want) {
		t.Fatalf("fleet gain %v, window trace gives %v", r.BatchCoreHoursGained, want)
	}
}

// checkWorkers runs cfg at 1, 5 and 16 workers; every run must reproduce
// the subtest's golden digest (the one-worker run records it under
// -update), and the one-worker run must pass checkGain. It returns the
// one-worker Result.
func checkWorkers(t *testing.T, golden map[string]string, cfg Config) Result {
	t.Helper()
	var first Result
	for i, workers := range []int{1, 5, 16} {
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
			checkDigest(t, golden, res)
			checkGain(t, res)
		} else if !reflect.DeepEqual(first, res) {
			t.Fatalf("run at %d workers diverged from the one-worker run", workers)
		}
	}
	return first
}

// equivConfig is the equivalence suite's base fleet: two clients on
// different services (different targets and calibration-free deltas), a
// diurnal shape so the auto engine mixes analytic and discrete windows,
// a drain/restore that sends cores through sentinel states and back as
// cold starts, and a surge that steps one client's rate mid-horizon —
// transitions that reset controllers or switch modes, and split or
// rejoin the walk's spans.
func equivConfig() Config {
	return Config{
		Servers: 3, CoresPerServer: 4,
		Traffic: loadgen.Traffic{
			Windows: 10, WindowSec: 300,
			Clients: []loadgen.Client{
				{
					Name: "search", Service: workload.WebSearch, Fraction: 0.5, SLO: loadgen.SLOStrict,
					Spec: loadgen.Spec{Shape: loadgen.Diurnal{
						HourLoad: loadgen.WebSearchDay(), PeakRPS: 600 * 6, WindowsPerDay: 10,
					}, Poisson: true},
				},
				{
					Name: "kv", Service: workload.DataServing, Fraction: 0.5,
					Spec: loadgen.Spec{Shape: loadgen.Constant{Rate: 1000 * 6}, Poisson: true},
				},
			},
		},
		Scenario: loadgen.Scenario{Events: []loadgen.Event{
			{Kind: loadgen.EventDrain, Window: 3, Server: 1},
			{Kind: loadgen.EventRestore, Window: 6, Server: 1},
			{Kind: loadgen.EventSurge, Window: 5, Until: 7, Client: "kv", Factor: 1.4},
		}},
		BatchSpeedupB: 0.13, LSSlowdownB: 0.07,
		WindowRequests: 150, Seed: 7,
	}
}

// TestCohortEquivalence is the cohort walk's contract: for every policy ×
// engine × estimator, the run must reproduce the digest the per-core
// reference engine committed — full Results, every float bit — at every
// worker count. The -race CI job runs this, putting the shared solve
// cache, the per-window residue goroutines and the phase-two controller
// advances under the detector.
func TestCohortEquivalence(t *testing.T) {
	golden := readDigests(t)
	policies := []Policy{PolicyStatic, PolicyProportional, PolicyP2C, PolicyFeedback}
	engines := []Engine{EngineDiscrete, EngineAuto}
	estimators := []stats.TailEstimator{stats.EstimatorHistogram, stats.EstimatorExact}
	for _, pol := range policies {
		for _, eng := range engines {
			for _, est := range estimators {
				t.Run(fmt.Sprintf("%v/%v/%v", pol, eng, est), func(t *testing.T) {
					cfg := equivConfig()
					cfg.Scheduler = SchedulerConfig{Policy: pol}
					cfg.Engine = eng
					cfg.TailEstimator = est
					res := checkWorkers(t, golden, cfg)
					if eng != EngineDiscrete && res.CohortCoreWindows == 0 {
						t.Fatal("no coalescible core-windows; the equivalence check is vacuous")
					}
				})
			}
		}
	}
	if *update {
		writeDigests(t, golden)
	}
}

// TestCohortEquivalenceAutoscale drives park/unpark transitions (plus a
// scenario drain) under the util autoscaler: parked cores release their
// controllers and return as cold starts, a reset path the plain suite
// cannot reach. Both estimators, every engine, three worker
// counts, each against its committed digest.
func TestCohortEquivalenceAutoscale(t *testing.T) {
	golden := readDigests(t)
	for _, eng := range []Engine{EngineDiscrete, EngineAuto} {
		for _, est := range []stats.TailEstimator{stats.EstimatorHistogram, stats.EstimatorExact} {
			t.Run(fmt.Sprintf("%v/%v", eng, est), func(t *testing.T) {
				cfg := equivConfig()
				cfg.Scheduler = SchedulerConfig{Policy: PolicyProportional}
				cfg.Engine = eng
				cfg.TailEstimator = est
				cfg.Autoscale = AutoscaleConfig{
					Policy: AutoscaleUtil, MinServers: 1,
					Custom: windowScale(func(w int) int {
						switch {
						case w >= 2 && w < 5: // park two servers mid-horizon
							return 1
						default:
							return 3
						}
					}),
				}
				if res := checkWorkers(t, golden, cfg); res.ParkedCoreWindows == 0 {
					t.Fatal("autoscaler parked nothing; the split scenario is vacuous")
				}
			})
		}
	}
	if *update {
		writeDigests(t, golden)
	}
}

// TestCohortEquivalenceTraced pins decision tracing and the
// counterfactual evaluator: one cell per policy plus the util-autoscale
// scenario, each on the auto engine at TraceFull with two alternatives per
// window, so the records carry the per-core assignment, the pressure
// weights and regret from both the analytic and the discrete evaluator.
func TestCohortEquivalenceTraced(t *testing.T) {
	golden := readDigests(t)
	cells := []struct {
		name  string
		sched SchedulerConfig
		auto  AutoscaleConfig
	}{
		{"static", SchedulerConfig{Policy: PolicyStatic}, AutoscaleConfig{}},
		{"proportional", SchedulerConfig{Policy: PolicyProportional}, AutoscaleConfig{}},
		{"p2c", SchedulerConfig{Policy: PolicyP2C}, AutoscaleConfig{}},
		{"feedback", SchedulerConfig{Policy: PolicyFeedback}, AutoscaleConfig{}},
		{"util-autoscale", SchedulerConfig{Policy: PolicyProportional},
			AutoscaleConfig{Policy: AutoscaleUtil, MinServers: 1}},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			cfg := equivConfig()
			cfg.Scheduler = c.sched
			cfg.Autoscale = c.auto
			cfg.Engine = EngineAuto
			cfg.DecisionTrace = TraceFull
			cfg.CounterfactualK = 2
			res := checkWorkers(t, golden, cfg)
			if len(res.DecisionTrace) != cfg.Traffic.Windows {
				t.Fatalf("%d decision records for %d windows", len(res.DecisionTrace), cfg.Traffic.Windows)
			}
			if c.auto.Policy != AutoscaleOff && res.ParkedCoreWindows == 0 {
				t.Fatal("autoscaler parked nothing; the cell is vacuous")
			}
		})
	}
	if *update {
		writeDigests(t, golden)
	}
}

// TestCohortDiscreteEngineUnaffected: the discrete engine answers nothing
// analytically, counts exactly the serving windows the scheduler routed no
// load to as coalesced, and reproduces its committed digest.
func TestCohortDiscreteEngineUnaffected(t *testing.T) {
	golden := readDigests(t)
	cfg := equivConfig()
	cfg.Traffic.Clients[1].Spec = loadgen.Spec{
		Shape:   loadgen.Replay{Rates: []float64{6000, 6000, 0, 0, 6000, 6000, 6000, 0, 6000, 6000}},
		Poisson: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	zeroRate := 0
	for _, o := range res.WindowTrace {
		for _, co := range o.Clients {
			if co.Cores > 0 && co.OfferedRPS == 0 {
				zeroRate += co.Cores
			}
		}
	}
	if zeroRate == 0 {
		t.Fatal("no serving core-window was routed zero load; the test is vacuous")
	}
	if res.CohortCoreWindows != zeroRate || res.AnalyticCoreWindows != 0 || res.AnalyticSolves != 0 {
		t.Fatalf("discrete engine reported cohort=%d (want %d zero-rate) analytic=%d solves=%d",
			res.CohortCoreWindows, zeroRate, res.AnalyticCoreWindows, res.AnalyticSolves)
	}
	checkDigest(t, golden, res)
	if *update {
		writeDigests(t, golden)
	}
}

// TestCohortSolveCounter: AnalyticSolves counts distinct solved keys —
// strictly positive whenever analytic windows were answered, no larger
// than the analytic core-window count, and identical across paths (the
// DeepEqual suites above already pin the latter; this pins the bounds).
func TestCohortSolveCounter(t *testing.T) {
	cfg := equivConfig()
	cfg.Engine = EngineAuto
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AnalyticCoreWindows == 0 {
		t.Fatal("auto run answered nothing analytically")
	}
	if res.AnalyticSolves <= 0 || res.AnalyticSolves > res.AnalyticCoreWindows {
		t.Fatalf("AnalyticSolves = %d with %d analytic core-windows",
			res.AnalyticSolves, res.AnalyticCoreWindows)
	}
	if res.CohortCoreWindows < res.AnalyticCoreWindows {
		t.Fatalf("CohortCoreWindows %d < AnalyticCoreWindows %d (zero-rate windows only add)",
			res.CohortCoreWindows, res.AnalyticCoreWindows)
	}
}

// TestCohortWorklistBounded: under migration-heavy churn — feedback
// reallocation, a scenario drain/restore, util-autoscaler park/unpark —
// the worklist never grows past one item per core, under the discrete and
// auto engines alike.
func TestCohortWorklistBounded(t *testing.T) {
	for _, eng := range []Engine{EngineDiscrete, EngineAuto} {
		t.Run(eng.String(), func(t *testing.T) {
			cfg := equivConfig()
			cfg.Scheduler = SchedulerConfig{Policy: PolicyFeedback}
			cfg.Engine = eng
			cfg.Autoscale = AutoscaleConfig{
				Policy: AutoscaleUtil, MinServers: 1,
				Custom: windowScale(func(w int) int { return 3 - w%3 }),
			}
			cfg.Workers = 2
			e, err := newEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < e.windows; w++ {
				if err := e.runWindow(w); err != nil {
					t.Fatal(err)
				}
				if cap(e.worklist) > e.nCores {
					t.Fatalf("window %d: worklist grew to %d, bound %d", w, cap(e.worklist), e.nCores)
				}
			}
			res := e.aggregate()
			if res.Migrations == 0 || res.ParkedCoreWindows == 0 || res.DrainedCoreWindows == 0 {
				t.Fatalf("churn is vacuous: %d migrations, %d parked, %d drained core-windows",
					res.Migrations, res.ParkedCoreWindows, res.DrainedCoreWindows)
			}
		})
	}
}

// TestCohortMigratedCoresStartCold: under feedback churn, a drain/restore
// and util-autoscaler park/unpark, every core the scheduler marks
// Migrated enters its window holding another client's controller or none
// — an owner change or a return from a parked server — so the walk
// resets it. This pins why a migrated core needs no batch-credit rule of
// its own: it runs its window on the reset controller, in Baseline, so it
// never earns a B-mode bonus to forfeit.
func TestCohortMigratedCoresStartCold(t *testing.T) {
	cfg := equivConfig()
	cfg.Scheduler = SchedulerConfig{Policy: PolicyFeedback}
	cfg.Engine = EngineAuto
	cfg.Autoscale = AutoscaleConfig{
		Policy: AutoscaleUtil, MinServers: 1,
		Custom: windowScale(func(w int) int { return 3 - w%3 }),
	}
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	owned := make([]int16, e.nCores)
	handovers, returns := 0, 0
	for w := 0; w < e.windows; w++ {
		copy(owned, e.ctlClient)
		if err := e.runWindow(w); err != nil {
			t.Fatal(err)
		}
		asg := e.st.asg
		for c := range e.nCores {
			if !asg.Migrated[c] {
				continue
			}
			if m := core.Mode(e.lastMode[c]); m != core.ModeBaseline {
				t.Fatalf("window %d core %d: migrated but ran in %v", w, c, m)
			}
			switch {
			case owned[c] == asg.Client[c]:
				t.Fatalf("window %d core %d: migrated but kept client %d's controller", w, c, owned[c])
			case owned[c] < 0:
				returns++
			default:
				handovers++
			}
		}
	}
	if handovers == 0 || returns == 0 {
		t.Fatalf("churn is vacuous: %d owner changes, %d returns to service", handovers, returns)
	}
}

// TestCohortSpanIgnoresLastMode: two cores whose controllers are equal
// but whose previous modes differ share one span, because a window's tail
// depends only on its config, rate, perf and seed, and the controller
// value carries every mode the core can run. Under auto the solver
// accepts the span, so both cores are answered analytically and neither
// is discrete residue.
func TestCohortSpanIgnoresLastMode(t *testing.T) {
	cfg := Config{
		Servers: 1, CoresPerServer: 2,
		Traffic: loadgen.Traffic{
			Windows: 1, WindowSec: 300,
			Clients: []loadgen.Client{{
				Name: "search", Service: workload.WebSearch, Fraction: 1,
				Spec: loadgen.Spec{Shape: loadgen.Constant{Rate: 1000}, Poisson: true},
			}},
		},
		Engine: EngineAuto, WindowRequests: 150, Seed: 7, Workers: 1,
	}
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rate := 0.5 / queueing.Utilization(e.qcfgs[0], 1, 1)
	for c := range 2 {
		e.ctl[c], e.ctlClient[c] = e.fresh[0], 0
	}
	e.lastMode[0], e.lastMode[1] = int8(core.ModeBaseline), int8(core.ModeB)
	e.walkWindow(Assignment{
		Client:   []int16{0, 0},
		Rate:     []float64{rate, rate},
		Migrated: []bool{false, false},
	})
	if e.analyticCW != 2 || e.cohortCW != 2 {
		t.Fatalf("%d analytic and %d cohort core-windows, want 2 each", e.analyticCW, e.cohortCW)
	}
	if len(e.worklist) != 0 {
		t.Fatalf("worklist %+v, want no residue", e.worklist)
	}
	if e.tails[0] != e.tails[1] || e.ctl[0] != e.ctl[1] || e.lastMode[0] != e.lastMode[1] {
		t.Fatalf("span members diverged: tails %v, %v; modes %d, %d",
			e.tails[0], e.tails[1], e.lastMode[0], e.lastMode[1])
	}
}
