// Command benchjson converts `go test -bench` text output into a stable
// JSON document, so CI can publish benchmark trajectories (BENCH_*.json
// artifacts) that tooling can diff across commits without re-parsing the
// bench text format.
//
// Usage:
//
//	go test -bench . -benchmem | benchjson -o BENCH_fleet.json
//	benchjson -o BENCH_fleet.json bench1.txt bench2.txt
//	benchjson -baseline BENCH_fleet.json -tolerance 4 bench.txt
//
// Each benchmark appears once, with every metric averaged over its -count
// repetitions (runs records how many were folded in). Standard metrics
// (ns/op, B/op, allocs/op) and custom b.ReportMetric units (e.g. req/s)
// are treated alike.
//
// With -baseline, the parsed input is compared against a previously
// emitted JSON snapshot instead of (or before) being written: every
// baseline benchmark must appear in the input with mean ns/op at most
// -tolerance times its baseline value, or the exit status is 1. The
// tolerance is deliberately coarse — the committed snapshot records one
// machine's numbers and CI hardware differs — so the gate catches
// order-of-magnitude regressions, not noise. Benchmarks new on the input
// side pass (they become baseline entries when the snapshot is
// regenerated); benchmarks missing from the input fail closed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one aggregated benchmark result.
type Benchmark struct {
	// Name is the benchmark name with the -P GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Pkg is the package the benchmark ran in (from the preceding `pkg:`
	// header line; empty if the input carried none). Same-named
	// benchmarks in different packages stay separate entries.
	Pkg string `json:"pkg,omitempty"`
	// Procs is the GOMAXPROCS suffix (0 if absent).
	Procs int `json:"procs,omitempty"`
	// Runs is how many result lines (-count repetitions) were folded in.
	Runs int `json:"runs"`
	// Iterations is the total b.N across runs.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → mean value across runs (ns/op, B/op,
	// allocs/op, and any custom ReportMetric units).
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the top-level JSON document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Packages   []string    `json:"packages,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// accum collects one benchmark's repetitions before averaging.
type accum struct {
	name       string
	pkg        string
	procs      int
	runs       int
	iterations int64
	sums       map[string]float64
	counts     map[string]int
}

func main() {
	out := flag.String("o", "", "output path (default stdout)")
	baseline := flag.String("baseline", "", "committed snapshot to compare the input against (exit 1 on regression)")
	tolerance := flag.Float64("tolerance", 4, "with -baseline: fail when mean ns/op exceeds this multiple of the snapshot's")
	flag.Parse()

	var readers []io.Reader
	if flag.NArg() == 0 {
		readers = append(readers, os.Stdin)
	}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		readers = append(readers, f)
	}

	rep, err := parse(io.MultiReader(readers...))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines in input")
		os.Exit(1)
	}
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		var base Report
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *baseline, err)
			os.Exit(1)
		}
		report, ok := compare(base, rep, *tolerance)
		fmt.Print(report)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: regression beyond %gx of %s\n", *tolerance, *baseline)
			os.Exit(1)
		}
		if *out == "" {
			return
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parse consumes go-test bench output: header key: value lines and
// `BenchmarkName-P  N  value unit  value unit ...` result lines; anything
// else (PASS, ok, test logs) is ignored.
func parse(r io.Reader) (Report, error) {
	var rep Report
	accums := map[string]*accum{}
	var order []string
	pkg := "" // package of the benchmark lines that follow

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			rep.Packages = append(rep.Packages, pkg)
		case strings.HasPrefix(line, "Benchmark"):
			fields := strings.Fields(line)
			// A result line needs a name, an iteration count, and at
			// least one value-unit pair; odd trailing fields are not a
			// result line (e.g. a benchmark log line).
			if len(fields) < 4 || len(fields)%2 != 0 {
				continue
			}
			iters, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				continue
			}
			name, procs := splitProcs(fields[0])
			// Key by (package, name): a multi-package bench run (or
			// several per-package files) reuses benchmark names, and
			// averaging across packages would report a value that
			// corresponds to no real benchmark.
			key := pkg + "\x00" + name
			a, ok := accums[key]
			if !ok {
				a = &accum{name: name, pkg: pkg, procs: procs, sums: map[string]float64{}, counts: map[string]int{}}
				accums[key] = a
				order = append(order, key)
			}
			a.runs++
			a.iterations += iters
			for i := 2; i+1 < len(fields); i += 2 {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return Report{}, fmt.Errorf("bad value %q in %q", fields[i], line)
				}
				unit := fields[i+1]
				a.sums[unit] += v
				a.counts[unit]++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Report{}, err
	}

	// Appended runs (several go test invocations in one file) repeat a
	// package's header; list each package once.
	sort.Strings(rep.Packages)
	rep.Packages = slices.Compact(rep.Packages)
	for _, key := range order {
		a := accums[key]
		b := Benchmark{
			Name: a.name, Pkg: a.pkg, Procs: a.procs,
			Runs: a.runs, Iterations: a.iterations,
			Metrics: make(map[string]float64, len(a.sums)),
		}
		for unit, sum := range a.sums {
			b.Metrics[unit] = sum / float64(a.counts[unit])
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	return rep, nil
}

// compare checks every baseline benchmark against the head report's mean
// ns/op, returning a human-readable delta table and whether the head
// stayed within tolerance×baseline everywhere. Head-only benchmarks are
// listed but never fail; baseline entries absent from the head fail
// closed (a gate that silently stops measuring guards nothing).
func compare(base, head Report, tolerance float64) (string, bool) {
	heads := make(map[string]Benchmark, len(head.Benchmarks))
	for _, b := range head.Benchmarks {
		heads[b.Pkg+"\x00"+b.Name] = b
	}
	var sb strings.Builder
	ok := true
	for _, b := range base.Benchmarks {
		key := b.Pkg + "\x00" + b.Name
		h, found := heads[key]
		delete(heads, key)
		baseNs := b.Metrics["ns/op"]
		if !found {
			fmt.Fprintf(&sb, "%-40s missing from input\n", b.Name)
			ok = false
			continue
		}
		headNs := h.Metrics["ns/op"]
		if baseNs <= 0 {
			fmt.Fprintf(&sb, "%-40s no baseline ns/op\n", b.Name)
			continue
		}
		ratio := headNs / baseNs
		verdict := "ok"
		if headNs > tolerance*baseNs {
			verdict = "REGRESSION"
			ok = false
		}
		fmt.Fprintf(&sb, "%-40s %14.0f -> %14.0f ns/op (%5.2fx) %s\n", b.Name, baseNs, headNs, ratio, verdict)
	}
	// Deterministic order for head-only entries.
	var extra []string
	for key := range heads {
		extra = append(extra, key)
	}
	sort.Strings(extra)
	for _, key := range extra {
		fmt.Fprintf(&sb, "%-40s new (no baseline)\n", heads[key].Name)
	}
	return sb.String(), ok
}

// splitProcs strips the trailing -P GOMAXPROCS suffix from a benchmark
// name, returning the bare name and P (0 when absent).
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 0
	}
	p, err := strconv.Atoi(name[i+1:])
	if err != nil || p <= 0 {
		return name, 0
	}
	return name[:i], p
}
