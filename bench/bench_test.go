package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMain runs the tests from the repository root, where the benchmark runs.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestMetricRegistry(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	var setupBound, maxBound float64
	for _, m := range append(append(append([]metricDef(nil), endToEnd...), exact...), perLayer...) {
		if !metricName.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q invalid or repeated", m.Name)
		}
		seen[m.Name] = true
		if m.Unit == "" || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: unit %q, direction %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range endToEnd {
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			maxBound = math.Max(maxBound, m.Bound)
		}
	}
	if setupBound < maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for _, m := range append(append([]metricDef(nil), exact...), perLayer...) {
		if m.Bound != 0 {
			t.Errorf("%s is not bounded in BENCHMARK.json but has a bound", m.Name)
		}
	}
}

// TestRegistryMatchesBenchmarkJSON: BENCHMARK.json describes exactly the
// workloads and metrics the benchmark runs and reports.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.name)
		}
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
}

// TestMedianQuartiles pins the helpers to Python's statistics.median and
// statistics.quantiles(n=4) on the same inputs.
func TestMedianQuartiles(t *testing.T) {
	cases := []struct {
		xs         []float64
		med        float64
		q1, q3     float64
		spreadWant float64
	}{
		{[]float64{5}, 5, 5, 5, 0},
		{[]float64{1, 2}, 1.5, 0.75, 2.25, 1},
		{[]float64{3, 1, 2}, 2, 1, 3, 1},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75, 1},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25, 1},
		{[]float64{2.9, 3.1, 3.0, 2.8, 3.3}, 3.0, 2.85, 3.2, 0.35 / 3},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
		if !near(s.Value, c.med) || !near(s.Q1, c.q1) || !near(s.Q3, c.q3) || s.N != len(c.xs) ||
			!near(s.spread(), c.spreadWant) {
			t.Errorf("%v: got median %v q1 %v q3 %v spread %v", c.xs, s.Value, s.Q1, s.Q3, s.spread())
		}
	}
}

func TestVerdict(t *testing.T) {
	wall, _ := lookupMetric("wall_s")
	rate, _ := lookupMetric("cw_per_s")
	p99, _ := lookupMetric("fleet_p99_ms")
	tight := func(v float64) stat { return stat{Value: v, Q1: v, Q3: v} }
	cases := []struct {
		m    metricDef
		a, b stat
		want string
	}{
		{wall, tight(1), tight(1.01), "ok"},
		{wall, tight(1), tight(0.5), "ok"},
		{wall, tight(1), tight(1 + 2*wall.Bound), "worse"},
		{rate, tight(1), tight(1 - 2*rate.Bound), "worse"},
		{rate, tight(1), tight(2), "ok"},
		{wall, stat{Value: 1, Q1: 0.5, Q3: 1.5}, tight(1), "unresolved"},
		{p99, tight(967), tight(967), "ok"},
		{p99, tight(967), tight(968), "differs"},
	}
	for i, c := range cases {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}

// TestWeekRecipeMatchesCommittedTrace: the benchmark's week recipe at seed 1
// reproduces the CLI's committed week trace byte for byte.
func TestWeekRecipeMatchesCommittedTrace(t *testing.T) {
	if err := checkWeekTrace(); err != nil {
		t.Fatal(err)
	}
}

// TestPlantedDigestMismatchFails: a run whose digest differs from the
// pass's, or a pass whose digest differs from the other pass's, counts as
// a failed operation.
func TestPlantedDigestMismatchFails(t *testing.T) {
	w, err := lookupWorkload("day-discrete")
	if err != nil {
		t.Fatal(err)
	}
	j, err := w.setup(2, true, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := newPass(w.name)
	if _, _, ok := p.runChecked(j, 1, nil, 0); !ok {
		t.Fatalf("clean run failed: %v", p.Errors)
	}
	p.Digest = "planted"
	if _, _, ok := p.runChecked(j, 2, nil, 0); ok || p.Failed != 1 || p.Attempted != 2 {
		t.Fatalf("planted digest: ok=%v, %d of %d failed", ok, p.Failed, p.Attempted)
	}
	r := workloadReport{Digest: "planted", Metrics: map[string]stat{}}
	mergePass(&r, &passResult{Digest: "other"})
	if r.Failed != 1 {
		t.Fatalf("pass digest mismatch not counted: %+v", r)
	}
}

// TestWorkloadsAtToyScale runs both passes of every workload at toy scale
// and requires every check to pass and every metric of the pass to be
// reported (max_rss_mb is read by the parent process).
func TestWorkloadsAtToyScale(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e2e := endToEndPass(w, 2, 0, true)
			tr := tracedPass(w, 2, true, 2)
			for _, p := range []*passResult{e2e, tr} {
				if p.Failed > 0 || p.Attempted == 0 {
					t.Fatalf("%d of %d operations failed: %v", p.Failed, p.Attempted, p.Errors)
				}
			}
			if e2e.Digest != tr.Digest {
				t.Errorf("digest %.12s of the end-to-end pass differs from %.12s of the traced pass", e2e.Digest, tr.Digest)
			}
			for _, m := range append(append([]metricDef(nil), endToEnd...), exact...) {
				if _, ok := e2e.Metrics[m.Name]; !ok && m.Name != "max_rss_mb" {
					t.Errorf("end-to-end pass lacks %s", m.Name)
				}
			}
			for _, m := range perLayer {
				if _, ok := tr.Metrics[m.Name]; !ok {
					t.Errorf("traced pass lacks %s", m.Name)
				}
			}
			if len(tr.Spans) == 0 {
				t.Error("traced pass recorded no spans")
			}
			for _, s := range tr.Spans {
				if s.EndNs < s.StartNs || s.Parent >= s.ID {
					t.Errorf("span %+v is not closed under an earlier parent", s)
				}
			}
		})
	}
}
