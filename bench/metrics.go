package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricDef is one registered metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, as BENCHMARK.json
// lists and bounds them. The first five are host metrics, measured on the
// machine running the benchmark; qos_met_frac and batch_gain_pct are
// simulated.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.24},
	{"cw_per_s", "cw/s", "higher", 0.24},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.15},
	{"max_rss_mb", "MB", "lower", 0.20},
	{"qos_met_frac", "ratio", "higher", 0.15},
	{"batch_gain_pct", "%", "higher", 0.15},
}

// exact are simulated end-to-end results reported beside endToEnd but left
// out of BENCHMARK.json: between seeds they move more than any bound it
// allows (the fleet p99 spans 901-1147 ms on day-discrete over seeds 1-10,
// a histogram bucket apart). For one seed they repeat exactly, which -diff
// requires.
var exact = []metricDef{
	{Name: "fleet_p99_ms", Unit: "ms", Better: "lower"},
}

// perLayer are the traced pass's metrics, named <layer>.<metric>.
var perLayer = []metricDef{
	{Name: "fleet.serving_cw", Unit: "cw", Better: "higher"},
	{Name: "fleet.discrete_cw", Unit: "cw", Better: "lower"},
	{Name: "fleet.discrete_cw_w0", Unit: "cw", Better: "lower"},
	{Name: "fleet.analytic_cw", Unit: "cw", Better: "higher"},
	{Name: "fleet.cohort_cw", Unit: "cw", Better: "higher"},
	{Name: "fleet.cohort_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "fleet.migrations", Unit: "cw", Better: "lower"},
	{Name: "fleet.plan_probes", Unit: "count", Better: "lower"},
	{Name: "fleet.plan_cores", Unit: "count", Better: "lower"},
	{Name: "fleet.run_s_w1", Unit: "s", Better: "lower"},
	{Name: "fleet.ns_per_cw", Unit: "ns/cw", Better: "lower"},
	{Name: "fleet.worker_speedup", Unit: "x", Better: "higher"},
	{Name: "fleet.cpu_util", Unit: "ratio", Better: "higher"},
	{Name: "fleet.alloc_bytes_per_cw", Unit: "B/cw", Better: "lower"},
	{Name: "fleet.overhead_s", Unit: "s", Better: "lower"},
	{Name: "fleet.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "queueing.sim_requests", Unit: "count", Better: "lower"},
	{Name: "queueing.sim_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "queueing.sim_share", Unit: "ratio", Better: "lower"},
	{Name: "queueing.analytic_solves", Unit: "count", Better: "lower"},
	{Name: "queueing.solve_us", Unit: "us", Better: "lower"},
	{Name: "queueing.solve_share", Unit: "ratio", Better: "lower"},
	{Name: "queueing.solve_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "queueing.tailcache_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "queueing.peakload_ms", Unit: "ms", Better: "lower"},
	{Name: "monitor.switches", Unit: "count", Better: "lower"},
	{Name: "monitor.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "stats.hist_add_ns", Unit: "ns", Better: "lower"},
	{Name: "stats.hist_merge_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.timelines_ms", Unit: "ms", Better: "lower"},
	{Name: "tracefile.synth_ms", Unit: "ms", Better: "lower"},
	{Name: "tracefile.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "tracefile.parse_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}

func lookupMetric(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, exact, perLayer} {
		for _, m := range defs {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

// stat summarises one metric's samples within a pass: the median and the
// quartiles, as Python's statistics.median and statistics.quantiles(n=4)
// compute them.
type stat struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	Unit  string  `json:"unit"`
}

// spread is the interquartile distance as a share of the median.
func (s stat) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Value)
}

func summarize(xs []float64) stat {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	return stat{Value: median(s), Q1: q1, Q3: q3, N: len(s)}
}

// median of sorted values; 0 when empty.
func median(s []float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles of sorted values by the exclusive method of Python's
// statistics.quantiles(n=4); a single value is its own quartiles.
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// workloadReport is one workload's merged passes.
type workloadReport struct {
	Name      string          `json:"name"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Errors    []string        `json:"errors,omitempty"`
	Digest    string          `json:"digest"`
	Metrics   map[string]stat `json:"metrics"`
}

// report is the -o file.
type report struct {
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workers   int              `json:"workers"`
	Workloads []workloadReport `json:"workloads"`
}

func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// verdict compares medians a (the base) and b of one end-to-end metric:
// "worse" when b is worse than a by more than the bound, "unresolved"
// when either run's spread is wider than the bound, "ok" otherwise. A
// metric without a bound must repeat exactly: "ok" or "differs".
func verdict(m metricDef, a, b stat) string {
	if m.Bound == 0 {
		if a.Value == b.Value {
			return "ok"
		}
		return "differs"
	}
	if math.Max(a.spread(), b.spread()) > m.Bound {
		return "unresolved"
	}
	worse := b.Value - a.Value
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound*math.Abs(a.Value) {
		return "worse"
	}
	return "ok"
}

// diffReports prints, per (workload, end-to-end metric), both medians,
// the wider spread and the verdict: for the bounded metrics as verdict
// gives it, for the exact ones "ok" or "differs". Then it says whether the
// digests agree. It reports whether every verdict is ok and every digest
// matches.
func diffReports(w io.Writer, a, b report) bool {
	ok := true
	fmt.Fprintf(w, "%-14s %-15s %14s %14s %8s  %s\n", "workload", "metric", "a", "b", "spread", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-14s missing from b\n", wa.Name)
			ok = false
			continue
		}
		for _, m := range append(append([]metricDef(nil), endToEnd...), exact...) {
			sa, inA := wa.Metrics[m.Name]
			sb, inB := wb.Metrics[m.Name]
			if !inA || !inB {
				fmt.Fprintf(w, "%-14s %-15s missing\n", wa.Name, m.Name)
				ok = false
				continue
			}
			v := verdict(m, sa, sb)
			ok = ok && v == "ok"
			fmt.Fprintf(w, "%-14s %-15s %14.6g %14.6g %7.1f%%  %s\n", wa.Name, m.Name,
				sa.Value, sb.Value, 100*math.Max(sa.spread(), sb.spread()), v)
		}
		v := "identical"
		if wa.Digest == "" || wa.Digest != wb.Digest {
			v, ok = "differs", false
		}
		fmt.Fprintf(w, "%-14s digest %s\n", wa.Name, v)
	}
	return ok
}
