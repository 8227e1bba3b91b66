package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"stretch/internal/loadgen"
	"stretch/internal/stats"
	"stretch/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/equivalence_digests.golden")

// digestGolden holds one sha256 per equivalence cell, keyed by subtest
// name. The per-core reference engine generated it before that engine was
// deleted, so it is the oracle the cohort walk must keep reproducing; a
// rebless needs a stated cause.
const digestGolden = "testdata/equivalence_digests.golden"

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

// writeDigests rewrites the golden file in name order.
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

// checkDigest compares the subtest's Result against its golden digest,
// or records it under -update.
func checkDigest(t *testing.T, golden map[string]string, res Result) {
	t.Helper()
	got := resultDigest(t, res)
	if *update {
		golden[t.Name()] = got
		return
	}
	want, ok := golden[t.Name()]
	if !ok {
		t.Fatalf("no golden digest for %s; run with -update", t.Name())
	}
	if got != want {
		t.Fatalf("digest %.16s, golden %.16s", got, want)
	}
}

// checkWorkers runs cfg at 1, 5 and 16 workers; every run must reproduce
// the subtest's golden digest (the one-worker run records it under
// -update). It returns the one-worker Result.
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
		} else if !reflect.DeepEqual(first, res) {
			t.Fatalf("run at %d workers diverged from the one-worker run", workers)
		}
	}
	return first
}

// equivConfig is the equivalence suite's base fleet: two clients on
// different services (different targets and calibration-free deltas), a
// diurnal shape so the auto classifier mixes analytic and discrete
// windows, and a drain/restore plus a surge so cores transit sentinel
// states and unsteady windows mid-horizon — the transitions that fork and
// re-merge controller-equivalence classes.
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
// cache, the persistent pool and the phase-two class advances under the
// detector.
func TestCohortEquivalence(t *testing.T) {
	golden := readDigests(t)
	policies := []Policy{PolicyStatic, PolicyProportional, PolicyP2C, PolicyFeedback}
	engines := []Engine{EngineDiscrete, EngineAuto, EngineFluid}
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
// scenario drain) under the util autoscaler: parked cores leave their
// equivalence classes and return as cold starts, the class-split path the
// plain suite cannot reach. Both estimators, every engine, three worker
// counts, each against its committed digest.
func TestCohortEquivalenceAutoscale(t *testing.T) {
	golden := readDigests(t)
	for _, eng := range []Engine{EngineDiscrete, EngineAuto, EngineFluid} {
		for _, est := range []stats.TailEstimator{stats.EstimatorHistogram, stats.EstimatorExact} {
			t.Run(fmt.Sprintf("%v/%v", eng, est), func(t *testing.T) {
				cfg := equivConfig()
				cfg.Scheduler = SchedulerConfig{Policy: PolicyProportional, NoMinCores: true}
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

// TestCohortDiscreteEngineUnaffected: the discrete engine reports no
// cohort or analytic core-windows, even through serving windows the
// scheduler routed no load to, and reproduces its committed digest.
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
		if co := o.Clients[1]; co.Cores > 0 && co.OfferedRPS == 0 {
			zeroRate += co.Cores
		}
	}
	if zeroRate == 0 {
		t.Fatal("no serving core-window was routed zero load; the test is vacuous")
	}
	if res.CohortCoreWindows != 0 || res.AnalyticCoreWindows != 0 || res.AnalyticSolves != 0 {
		t.Fatalf("discrete engine reported cohort=%d analytic=%d solves=%d",
			res.CohortCoreWindows, res.AnalyticCoreWindows, res.AnalyticSolves)
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

// TestCohortClassTableBounded: under migration-heavy churn — feedback
// reallocation, a scenario drain/restore, util-autoscaler park/unpark —
// the class table never holds more than one slot per core plus one per
// client, and the worklist never grows past one item per core, under the
// discrete and auto engines alike.
func TestCohortClassTableBounded(t *testing.T) {
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
			defer e.close()
			bound := e.nCores + len(cfg.Traffic.Clients)
			for w := 0; w < e.windows; w++ {
				if err := e.runWindow(w); err != nil {
					t.Fatal(err)
				}
				if len(e.classes) > bound {
					t.Fatalf("window %d: %d class slots, bound %d", w, len(e.classes), bound)
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
