// Package experiments reproduces every table and figure of the paper's
// characterisation (§II–III) and evaluation (§VI). Each artifact has a
// constructor returning a printable Table plus a set of named headline
// metrics that the test suite asserts qualitative shapes on; each table's
// notes quote the paper's numbers, and the README's "Known divergences"
// section records where the model departs from them.
//
// Invariant: every artifact is a pure function of its Scale and the
// built-in seeds — regenerating an artifact is bit-reproducible. The
// Context's colocate.Lab measures each (core config, workload pair) once
// and shares the cell with every artifact that reads it, which can skip
// work but never alter a cell; testdata/quick.golden pins every
// quick-scale table.
package experiments

import (
	"fmt"
	"strings"

	"stretch/internal/colocate"
	"stretch/internal/sampling"
	"stretch/internal/workload"
)

// Scale selects experiment fidelity.
type Scale int

// Scales.
const (
	// Quick uses a representative batch subset and short samples; used
	// by the test suite.
	Quick Scale = iota
	// Full uses all 29 batch benchmarks and the standard sample budget;
	// used by the benchmark harness and the CLI.
	Full
)

// String names the scale.
func (s Scale) String() string {
	if s == Quick {
		return "quick"
	}
	return "full"
}

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Metrics holds headline numbers ("batch_gain_mean", ...) that the
	// tests assert the paper's qualitative shapes on.
	Metrics map[string]float64
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// pct formats a fraction as a percentage cell.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// f3 formats a float cell.
func f3(f float64) string { return fmt.Sprintf("%.3f", f) }

// Context carries one run's scale and the Lab that measures every
// colocation and solo cell of it: experiments that read the same (core
// config, workload pair) share one simulation, whatever they call the
// config, and concurrent experiments wait for it instead of repeating it.
type Context struct {
	Scale Scale
	*colocate.Lab
}

// NewContext builds a context at the given scale: Quick measures under
// sampling.Quick, Full under sampling.Standard.
func NewContext(sc Scale) *Context {
	spec := sampling.Standard()
	if sc == Quick {
		spec = sampling.Quick()
	}
	return &Context{Scale: sc, Lab: colocate.NewLab(spec)}
}

// BatchNames returns the batch suite at the context's scale: all 29 at
// Full, a tier-spanning subset of 10 at Quick.
func (c *Context) BatchNames() []string {
	if c.Scale == Full {
		return workload.BatchNames()
	}
	return []string{
		"zeusmp", "libquantum", "lbm", "mcf", "bwaves", // memory-bound
		"gcc", "omnetpp", "hmmer", // moderate
		"povray", "sjeng", // compute-bound
	}
}

// QueueRequests returns the queueing-simulation request budget.
func (c *Context) QueueRequests() int {
	if c.Scale == Quick {
		return 20000
	}
	return 80000
}

// Named couples an experiment id with its runner, for the CLI and benches.
type Named struct {
	ID  string
	Run func(*Context) (Table, error)
}

// All lists every experiment in paper order.
func All() []Named {
	return []Named{
		{"table1", func(c *Context) (Table, error) { return Table1(), nil }},
		{"table2", func(c *Context) (Table, error) { return Table2(), nil }},
		{"table3", func(c *Context) (Table, error) { return Table3(), nil }},
		{"fig1", Fig1},
		{"fig2", Fig2},
		{"fig3", Fig3},
		{"fig4", Fig4},
		{"fig5", Fig5},
		{"fig6", Fig6},
		{"fig7", Fig7},
		{"fig9", Fig9},
		{"fig10", Fig10},
		{"fig11", Fig11},
		{"fig12", Fig12},
		{"fig13", Fig13},
		{"fig14", Fig14},
		{"ablation-lsq", AblationLSQCoupling},
		{"ablation-mshr", AblationMSHR},
		{"ablation-prefetch", AblationPrefetcher},
		{"ablation-signal", AblationControllerSignal},
		{"ablation-flush", AblationFlushCost},
	}
}

// ByID returns the named experiment or an error.
func ByID(id string) (Named, error) {
	for _, n := range All() {
		if n.ID == id {
			return n, nil
		}
	}
	return Named{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
