// Command bench is the fleet simulator's benchmark. It runs four named
// workloads, checks their outputs, and reports end-to-end metrics (host
// time, throughput in core-windows per second, set-up time, memory, and
// the simulated violations, batch gain and tail) plus a per-layer ledger
// measured from outside the program: spans around the benchmark's own
// calls into loadgen, tracefile and fleet, the deterministic counters in
// fleet.Result, and a replay of each run's own inputs through queueing,
// monitor and stats. See README.md.
//
// Usage, from the repository root:
//
//	sh bench/run.sh [-seed 1] [-seconds 10] [-o out.json] [-spans spans.json]
//	sh bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	sh bench/run.sh -diff a.json b.json
//
// Each workload pass runs in its own child process (the benchmark re-execs
// itself), so the parent can read the child's peak RSS. With --trace 0
// only the end-to-end pass runs, with --trace 1 only the traced pass;
// without --trace both run. The last line of standard output of a
// single-workload run is a JSON object with the pass's metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
)

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all)")
		seed    = flag.Uint64("seed", 1, "seed the workloads' inputs are generated from")
		seconds = flag.Float64("seconds", 10, "host seconds the end-to-end pass keeps timing runs")
		trace   = flag.Int("trace", -1, "0: end-to-end pass only, 1: traced pass only (default: both)")
		out     = flag.String("o", "", "write the metrics to this JSON file")
		spans   = flag.String("spans", "", "write the traced passes' spans and counters to this JSON file")
		diff    = flag.Bool("diff", false, "compare two -o files given as arguments against the bounds")
		child   = flag.String("child", "", "internal: run one pass of this workload in this process")
	)
	flag.Parse()
	workers := runtime.GOMAXPROCS(0)
	if *trace < -1 || *trace > 1 {
		fatalf("-trace %d: want 0 or 1", *trace)
	}

	if *diff {
		if flag.NArg() != 2 {
			fatalf("-diff wants two report files")
		}
		a, err := readReport(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		b, err := readReport(flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if !diffReports(os.Stdout, a, b) {
			os.Exit(1)
		}
		return
	}

	if *child != "" {
		w, err := lookupWorkload(*child)
		if err != nil {
			fatalf("%v", err)
		}
		var p *passResult
		if *trace == 1 {
			p = tracedPass(w, *seed, false, workers)
		} else {
			runtime.GOMAXPROCS(e2eWorkers)
			p = endToEndPass(w, *seed, *seconds, false)
		}
		if err := json.NewEncoder(os.Stdout).Encode(p); err != nil {
			fatalf("%v", err)
		}
		return
	}

	selected := workloads
	if *name != "" {
		w, err := lookupWorkload(*name)
		if err != nil {
			fatalf("%v", err)
		}
		selected = []benchWorkload{w}
	}
	passes := []int{0, 1}
	if *trace == 0 || *trace == 1 {
		passes = []int{*trace}
	}

	rep := report{Seed: *seed, Seconds: *seconds, Workers: workers}
	var traced []*passResult
	for _, w := range selected {
		r := workloadReport{Name: w.name, Metrics: map[string]stat{}}
		for _, mode := range passes {
			p, rssMB, err := spawn(w.name, mode, *seed, *seconds)
			if err != nil {
				fatalf("%s: %v", w.name, err)
			}
			if mode == 0 {
				p.set("max_rss_mb", rssMB)
			} else {
				traced = append(traced, p)
			}
			mergePass(&r, p)
		}
		printWorkload(os.Stdout, r, *seed, workers)
		rep.Workloads = append(rep.Workloads, r)
	}
	if *out != "" {
		writeJSON(*out, rep)
	}
	if *spans != "" {
		writeJSON(*spans, spansFile(traced))
	}

	failed := 0
	for _, r := range rep.Workloads {
		failed += r.Failed
	}
	if *name != "" {
		printContractLine(os.Stdout, rep.Workloads[0], passes)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// spawn runs one pass of a workload in a child process and returns its
// result and the child's peak resident set in MB.
func spawn(name string, mode int, seed uint64, seconds float64) (*passResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(exe, "-child", name, "-trace", strconv.Itoa(mode),
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("pass %d: %w", mode, err)
	}
	p := new(passResult)
	if err := json.Unmarshal(bytes.TrimSpace(stdout), p); err != nil {
		return nil, 0, fmt.Errorf("pass %d output: %w", mode, err)
	}
	// Maxrss is in kilobytes on Linux.
	rss := float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) * 1024 / 1e6
	return p, rss, nil
}

// mergePass folds a pass into the workload's report. Both passes must
// produce the same digest: the traced pass's one-worker run is checked
// against the end-to-end pass's multi-worker runs here.
func mergePass(r *workloadReport, p *passResult) {
	r.Attempted += p.Attempted
	r.Failed += p.Failed
	r.Errors = append(r.Errors, p.Errors...)
	for k, v := range p.Metrics {
		r.Metrics[k] = v
	}
	if r.Digest == "" {
		r.Digest = p.Digest
		return
	}
	r.Attempted++
	if p.Digest != r.Digest {
		r.Failed++
		r.Errors = append(r.Errors, fmt.Sprintf("digest %.12s of one pass differs from %.12s of the other", p.Digest, r.Digest))
	}
}

func printWorkload(w io.Writer, r workloadReport, seed uint64, workers int) {
	failedFrac := 0.0
	if r.Attempted > 0 {
		failedFrac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "== %s: seed %d, end-to-end at %d worker, traced at %d, digest %.16s ==\n",
		r.Name, seed, e2eWorkers, workers, r.Digest)
	fmt.Fprintf(w, "  %-32s %14d/%d  (failed_frac %.4g)\n", "failed/attempted", r.Failed, r.Attempted, failedFrac)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	for _, defs := range [][]metricDef{endToEnd, exact, perLayer} {
		for _, m := range defs {
			s, ok := r.Metrics[m.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-32s %14.6g %-6s %-6s", m.Name, s.Value, m.Unit, m.Better)
			if m.Bound > 0 {
				fmt.Fprintf(w, " bound %3.0f%%", 100*m.Bound)
			}
			if s.N > 1 {
				fmt.Fprintf(w, "  q1 %.6g q3 %.6g n %d", s.Q1, s.Q3, s.N)
			}
			fmt.Fprintln(w)
		}
	}
}

// printContractLine prints the single-workload result as one JSON line:
// whether every check passed, the operations attempted and failed, and
// the median of every metric of the passes that ran.
func printContractLine(w io.Writer, r workloadReport, passes []int) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, mode := range passes {
		defs := endToEnd
		if mode == 1 {
			defs = perLayer
		}
		for _, m := range defs {
			s, ok := r.Metrics[m.Name]
			if !ok {
				line.Correct = false
				continue
			}
			line.Metrics[m.Name] = value{s.Value, m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(w, "%s\n", b)
}

// spansFile is the -spans output: each traced pass's spans and the
// per-layer counters computed from them.
func spansFile(traced []*passResult) any {
	type entry struct {
		Workload string          `json:"workload"`
		Spans    []span          `json:"spans"`
		Counters map[string]stat `json:"counters"`
	}
	entries := make([]entry, 0, len(traced))
	for _, p := range traced {
		entries = append(entries, entry{p.Workload, p.Spans, p.Metrics})
	}
	return map[string]any{"workloads": entries}
}

func writeJSON(path string, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
}
