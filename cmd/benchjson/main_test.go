package main

import (
	"math"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: stretch
cpu: Intel(R) Xeon(R) CPU
BenchmarkFleet1kCores-8   	       3	 104805861 ns/op	         4400000 req/s	  378123 B/op	     195 allocs/op
BenchmarkFleet1kCores-8   	       3	 106805861 ns/op	         4300000 req/s	  378125 B/op	     195 allocs/op
BenchmarkFleet10kCores-8  	       1	1004805861 ns/op	  3600000 B/op	     765 allocs/op
BenchmarkTraceGen         	 5000000	       251 ns/op
PASS
ok  	stretch	12.3s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU != "Intel(R) Xeon(R) CPU" {
		t.Fatalf("header wrong: %+v", rep)
	}
	if len(rep.Packages) != 1 || rep.Packages[0] != "stretch" {
		t.Fatalf("packages wrong: %v", rep.Packages)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}

	fleet := rep.Benchmarks[0]
	if fleet.Name != "BenchmarkFleet1kCores" || fleet.Procs != 8 {
		t.Fatalf("name/procs wrong: %+v", fleet)
	}
	if fleet.Runs != 2 || fleet.Iterations != 6 {
		t.Fatalf("runs/iterations wrong: %+v", fleet)
	}
	// Metrics are means across the two -count runs.
	wantNs := (104805861.0 + 106805861.0) / 2
	if got := fleet.Metrics["ns/op"]; math.Abs(got-wantNs) > 1 {
		t.Fatalf("ns/op %v, want %v", got, wantNs)
	}
	if got := fleet.Metrics["req/s"]; math.Abs(got-4350000) > 1 {
		t.Fatalf("req/s %v, want 4350000", got)
	}
	if got := fleet.Metrics["allocs/op"]; got != 195 {
		t.Fatalf("allocs/op %v", got)
	}

	big := rep.Benchmarks[1]
	if big.Name != "BenchmarkFleet10kCores" || big.Runs != 1 || big.Metrics["B/op"] != 3600000 {
		t.Fatalf("10k bench wrong: %+v", big)
	}

	// No -P suffix: procs 0, name intact.
	tg := rep.Benchmarks[2]
	if tg.Name != "BenchmarkTraceGen" || tg.Procs != 0 || tg.Metrics["ns/op"] != 251 {
		t.Fatalf("trace bench wrong: %+v", tg)
	}
}

// TestParseKeepsPackagesSeparate: the same benchmark name in two packages
// (a ./... run, or two per-package files concatenated) must stay two
// entries — averaging across packages would report a value that
// corresponds to no real benchmark.
func TestParseKeepsPackagesSeparate(t *testing.T) {
	in := `pkg: stretch/internal/queueing
BenchmarkSimulate-4 	 10	 100 ns/op
pkg: stretch/internal/other
BenchmarkSimulate-4 	 10	 300 ns/op
`
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	if rep.Benchmarks[0].Pkg != "stretch/internal/queueing" || rep.Benchmarks[0].Metrics["ns/op"] != 100 {
		t.Fatalf("first entry wrong: %+v", rep.Benchmarks[0])
	}
	if rep.Benchmarks[1].Pkg != "stretch/internal/other" || rep.Benchmarks[1].Metrics["ns/op"] != 300 {
		t.Fatalf("second entry wrong: %+v", rep.Benchmarks[1])
	}
}

// TestParseListsRepeatedPackageOnce: two appended go test runs of the same
// package (the fleet benches, then the scale benches) repeat its pkg:
// header, but the package list names it once and the benchmarks stay in
// that package.
func TestParseListsRepeatedPackageOnce(t *testing.T) {
	in := `pkg: stretch
BenchmarkFleet1kCores-2 	 3	 100 ns/op
ok  	stretch	1.0s
pkg: stretch
BenchmarkFleet1MCores-2 	 1	 900 ns/op
ok  	stretch	9.0s
`
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Packages) != 1 || rep.Packages[0] != "stretch" {
		t.Fatalf("packages %q, want [stretch]", rep.Packages)
	}
	if len(rep.Benchmarks) != 2 || rep.Benchmarks[0].Pkg != "stretch" || rep.Benchmarks[1].Pkg != "stretch" {
		t.Fatalf("benchmarks wrong: %+v", rep.Benchmarks)
	}
}

func TestParseIgnoresNonResultLines(t *testing.T) {
	in := `BenchmarkOdd-4 	notanumber	 12 ns/op
Benchmark log line without fields
BenchmarkGood-4 	 10	 12 ns/op
`
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "BenchmarkGood" {
		t.Fatalf("got %+v", rep.Benchmarks)
	}
}

func TestParseRejectsMalformedValues(t *testing.T) {
	in := "BenchmarkBad-4 \t 10 \t twelve ns/op\n"
	if _, err := parse(strings.NewReader(in)); err == nil {
		t.Fatal("malformed value accepted")
	}
}

func TestSplitProcs(t *testing.T) {
	cases := []struct {
		in    string
		name  string
		procs int
	}{
		{"BenchmarkX-8", "BenchmarkX", 8},
		{"BenchmarkX", "BenchmarkX", 0},
		{"BenchmarkX-foo", "BenchmarkX-foo", 0},
		{"Benchmark-2-16", "Benchmark-2", 16},
	}
	for _, c := range cases {
		name, procs := splitProcs(c.in)
		if name != c.name || procs != c.procs {
			t.Errorf("splitProcs(%q) = %q,%d want %q,%d", c.in, name, procs, c.name, c.procs)
		}
	}
}

func TestCompare(t *testing.T) {
	base := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", Pkg: "stretch", Metrics: map[string]float64{"ns/op": 100}},
		{Name: "BenchmarkB", Pkg: "stretch", Metrics: map[string]float64{"ns/op": 1000}},
	}}
	head := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", Pkg: "stretch", Metrics: map[string]float64{"ns/op": 350}},
		{Name: "BenchmarkB", Pkg: "stretch", Metrics: map[string]float64{"ns/op": 900}},
		{Name: "BenchmarkNew", Pkg: "stretch", Metrics: map[string]float64{"ns/op": 5}},
	}}
	// Within 4x everywhere: passes, and the new benchmark is reported
	// without failing.
	out, ok := compare(base, head, 4)
	if !ok {
		t.Fatalf("in-tolerance comparison failed:\n%s", out)
	}
	if !strings.Contains(out, "BenchmarkNew") || !strings.Contains(out, "new (no baseline)") {
		t.Fatalf("head-only benchmark not reported:\n%s", out)
	}
	// 350 ns vs 100 ns exceeds 3x.
	out, ok = compare(base, head, 3)
	if ok || !strings.Contains(out, "REGRESSION") {
		t.Fatalf("3.5x regression passed a 3x gate:\n%s", out)
	}
	// A baseline benchmark missing from the head fails closed.
	head.Benchmarks = head.Benchmarks[1:]
	out, ok = compare(base, head, 4)
	if ok || !strings.Contains(out, "missing from input") {
		t.Fatalf("missing benchmark passed:\n%s", out)
	}
	// Same name in a different package is not a match.
	other := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", Pkg: "elsewhere", Metrics: map[string]float64{"ns/op": 1}},
		{Name: "BenchmarkB", Pkg: "stretch", Metrics: map[string]float64{"ns/op": 900}},
	}}
	if _, ok := compare(base, other, 4); ok {
		t.Fatal("cross-package name collision treated as a match")
	}
}
