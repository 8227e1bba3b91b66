package queueing

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"stretch/internal/stats"
	"stretch/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/simulate_digests.golden")

// simulateGolden holds one sha256 per (service, estimator) over the Result
// bits of every cell of the simulateGrid. It pins the simulator's exact
// output, so a kernel change that claims bit-exactness must reproduce it
// unchanged; a rebless needs a stated cause.
const simulateGolden = "testdata/simulate_digests.golden"

// digestCase is one configuration row of the digest grid.
type digestCase struct {
	name string
	cfg  Config
}

// digestCases returns the four fleet services, plus the data-serving
// service narrowed to one worker and widened to 64 (the pool-width
// extremes of the worker ring), each under both estimators.
func digestCases() []digestCase {
	svcs := workload.Services()
	var base []digestCase
	for _, n := range workload.ServiceNames() {
		base = append(base, digestCase{n, ForService(svcs[n])})
	}
	for _, w := range []int{1, 64} {
		c := ForService(svcs[workload.DataServing])
		c.Workers = w
		base = append(base, digestCase{fmt.Sprintf("workers-%d", w), c})
	}
	var out []digestCase
	for _, b := range base {
		for _, est := range []stats.TailEstimator{stats.EstimatorExact, stats.EstimatorHistogram} {
			c := b.cfg
			c.Estimator = est
			out = append(out, digestCase{name: b.name + "/" + est.String(), cfg: c})
		}
	}
	return out
}

// digestCell is one (n, rate, perf, seed) point of the grid; rate is a
// fraction of the pool's saturation rate.
type digestCell struct {
	n        int
	rateFrac float64
	perf     float64
	seed     uint64
}

// simulateGrid spans the warm-up boundary (n = 9, 10), the fleet's
// per-window budget (400), a long run (4000), light to overloaded rates
// and slowed to sped-up cores. Each cell gets its own seed.
func simulateGrid() []digestCell {
	var cells []digestCell
	for _, n := range []int{1, 9, 10, 400, 4000} {
		for _, rf := range []float64{0.05, 0.6, 1.1} {
			for _, perf := range []float64{0.5, 0.93, 1, 1.3} {
				cells = append(cells, digestCell{n, rf, perf, uint64(len(cells) + 1)})
			}
		}
	}
	return cells
}

// appendResultBits appends r's exact bit pattern: floats as IEEE-754 bits,
// so equal digests mean bit-identical Results.
func appendResultBits(b []byte, r Result) []byte {
	for _, f := range []float64{r.MeanMs, r.P95Ms, r.P99Ms, r.QoSMs} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	meets := uint64(0)
	if r.MeetsQoS {
		meets = 1
	}
	b = binary.LittleEndian.AppendUint64(b, meets)
	b = binary.LittleEndian.AppendUint64(b, uint64(r.MaxQueue))
	return binary.LittleEndian.AppendUint64(b, uint64(r.Requests))
}

// TestSimulateDigests runs the whole grid forward on one reused Simulator
// and backward on another, so state leaking from one call into the next
// (across cells, sizes and configurations) shows as a mismatch, then
// compares each case's digest with the golden.
func TestSimulateDigests(t *testing.T) {
	cases := digestCases()
	cells := simulateGrid()
	results := make([][]Result, len(cases))
	var fwd, bwd Simulator
	for ci, c := range cases {
		results[ci] = make([]Result, len(cells))
		if err := fwd.Reset(c.cfg); err != nil {
			t.Fatal(err)
		}
		for k, cell := range cells {
			r, err := fwd.Simulate(cell.rate(c.cfg), cell.n, cell.perf, cell.seed)
			if err != nil {
				t.Fatalf("%s cell %d: %v", c.name, k, err)
			}
			results[ci][k] = r
		}
	}
	for ci := len(cases) - 1; ci >= 0; ci-- {
		c := cases[ci]
		if err := bwd.Reset(c.cfg); err != nil {
			t.Fatal(err)
		}
		for k := len(cells) - 1; k >= 0; k-- {
			cell := cells[k]
			r, err := bwd.Simulate(cell.rate(c.cfg), cell.n, cell.perf, cell.seed)
			if err != nil {
				t.Fatalf("%s cell %d: %v", c.name, k, err)
			}
			if r != results[ci][k] {
				t.Fatalf("%s cell %+v: backward pass %+v, forward pass %+v", c.name, cell, r, results[ci][k])
			}
		}
	}

	got := make(map[string]string, len(cases))
	for ci, c := range cases {
		var b []byte
		for _, r := range results[ci] {
			b = appendResultBits(b, r)
		}
		sum := sha256.Sum256(b)
		got[c.name] = hex.EncodeToString(sum[:])
	}
	if *update {
		writeSimulateDigests(t, got)
		return
	}
	want := readSimulateDigests(t)
	if len(want) != len(got) {
		t.Errorf("golden has %d digests, grid produced %d", len(want), len(got))
	}
	for _, c := range cases {
		if w, ok := want[c.name]; !ok {
			t.Errorf("%s: no golden digest; run with -update", c.name)
		} else if got[c.name] != w {
			t.Errorf("%s: digest %.16s, golden %.16s", c.name, got[c.name], w)
		}
	}
}

// rate converts the cell's saturation fraction to requests per second.
func (c digestCell) rate(cfg Config) float64 {
	return c.rateFrac * float64(cfg.Workers) * 1000 / cfg.MeanServiceMs
}

func readSimulateDigests(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(simulateGolden)
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]string)
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", simulateGolden, line)
		}
		m[name] = sum
	}
	return m
}

func writeSimulateDigests(t *testing.T, m map[string]string) {
	t.Helper()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString("# sha256 over the Result bits of every simulateGrid cell, per service and estimator.\n")
	sb.WriteString("# Regenerate: go test ./internal/queueing -run TestSimulateDigests -update\n")
	for _, n := range names {
		fmt.Fprintf(&sb, "%s %s\n", n, m[n])
	}
	if err := os.WriteFile(simulateGolden, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
