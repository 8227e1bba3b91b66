// Package colocate is the experiment harness for the paper's SMT
// characterisation and Stretch evaluation: it runs latency-sensitive ×
// batch colocation grids under the various core configurations (baseline
// equal partitioning, Stretch B-/Q-mode skews, dynamic sharing, fetch
// throttling, single-resource sharing studies, idealised software
// scheduling) and normalises against solo full-core baselines. One Lab
// holds every measurement of a run, so each (core config, workload pair)
// is simulated once however many figures or tables read it.
//
// Invariant: every cell is a pure function of (core config, workload pair,
// sampling spec), since sampling derives each trace seed from the spec and
// the pair's names alone. A Lab therefore memoises cells by value: sharing
// a cell can only skip work, never change a number.
package colocate

import (
	"fmt"
	"sync"
	"sync/atomic"

	"stretch/internal/core"
	"stretch/internal/sampling"
	"stretch/internal/workload"
)

// Resource identifies one of the four contended structures of §III-B.
type Resource int

// Resources under study in Figs. 4 and 5.
const (
	ResROB Resource = iota
	ResL1I
	ResL1D
	ResBTBBP
)

// String names the resource as the paper's figures do.
func (r Resource) String() string {
	switch r {
	case ResROB:
		return "ROB"
	case ResL1I:
		return "L1-I"
	case ResL1D:
		return "L1-D"
	case ResBTBBP:
		return "BTB+BP"
	default:
		return "?"
	}
}

// Resources lists all four studied resources in presentation order.
func Resources() []Resource { return []Resource{ResROB, ResL1I, ResL1D, ResBTBBP} }

// BaselineConfig returns the SMT baseline: everything shared, ROB/LSQ
// equally partitioned, 5 MSHRs per thread (Table II).
func BaselineConfig() core.Config { return core.Default() }

// SkewConfig returns a Stretch configuration with rob0 ROB entries for
// thread 0 (the LS thread by convention) and the rest for thread 1.
// rob0 must be a valid skew: an experiment constant or a skew checked by
// calib.Inputs.Validate.
func SkewConfig(rob0 int) core.Config {
	cfg := core.Default()
	if err := cfg.SetSkew(rob0); err != nil {
		panic(err)
	}
	return cfg
}

// DynamicConfig returns the dynamically shared ROB configuration (Fig. 11).
func DynamicConfig() core.Config {
	cfg := core.Default()
	cfg.ROBPolicy = core.ROBDynamic
	return cfg
}

// ThrottleConfig returns dynamic ROB sharing plus 1:m fetch throttling of
// thread 0 (Fig. 12; ratio 1:1 is plain dynamic sharing).
func ThrottleConfig(m int) core.Config {
	cfg := DynamicConfig()
	if m > 1 {
		cfg.FetchThrottle = m
		cfg.ThrottledThread = 0
	}
	return cfg
}

// ShareOnlyConfig returns the §III-B single-resource study configuration:
// every structure private and full-size except the one under study. A
// private L1-D implies the full 10-MSHR budget per thread.
func ShareOnlyConfig(r Resource) core.Config {
	cfg := core.Default()
	cfg.SharedL1I = r == ResL1I
	cfg.SharedL1D = r == ResL1D
	cfg.SharedBP = r == ResBTBBP
	if r == ResROB {
		cfg.SetEqualPartition() // halves: the SMT static split
	} else {
		cfg.ROBPolicy = core.ROBPrivate // full window each
	}
	if !cfg.SharedL1D {
		cfg.MSHRPerThread = 10
	}
	return cfg
}

// IdealSchedulingConfig returns the Fig. 13 idealisation of software
// scheduling: zero contention in all dynamically shared structures
// (private full-size L1-I, L1-D, BP) with the ROB statically partitioned;
// rob0 <= 0 selects the equal split, otherwise a Stretch skew is applied
// on top ("Stretch + Ideal Software Scheduling").
func IdealSchedulingConfig(rob0 int) core.Config {
	cfg := core.Default()
	cfg.SharedL1I, cfg.SharedL1D, cfg.SharedBP = false, false, false
	cfg.MSHRPerThread = 10
	if rob0 > 0 {
		if err := cfg.SetSkew(rob0); err != nil {
			panic(err)
		}
	}
	return cfg
}

// Pair is one LS × batch colocation result.
type Pair struct {
	LS, Batch string
	// LSAgg and BatchAgg are the sampled metrics of each hardware thread.
	LSAgg, BatchAgg sampling.Agg
}

// Lab measures colocations and solo runs under one sampling spec and
// simulates each (core config, workload pair) at most once: a cell is
// keyed by the config's value, so equal configs share cells whatever a
// caller calls them, and concurrent callers of one cell wait for its
// single run and read the same result, error included.
type Lab struct {
	spec  sampling.Spec
	cells sync.Map     // cellKey → *cell
	runs  atomic.Int64 // simulations started, so tests can count them
}

// cellKey names one measurement; an empty batch is ls alone on the core.
type cellKey struct {
	cfg       core.Config
	ls, batch string
}

type cell struct {
	once sync.Once
	p    Pair
	err  error
}

// NewLab returns an empty lab measuring under spec.
func NewLab(spec sampling.Spec) *Lab { return &Lab{spec: spec} }

// Grid runs every (ls, batch) pair on cores configured by cfg and returns
// results indexed [ls][batch].
func (l *Lab) Grid(cfg core.Config, lsNames, batchNames []string) (map[string]map[string]Pair, error) {
	var keys []cellKey
	for _, ls := range lsNames {
		for _, b := range batchNames {
			if b == "" { // the key of a solo cell, not a workload
				return nil, fmt.Errorf("colocate: empty batch workload name")
			}
			keys = append(keys, cellKey{cfg, ls, b})
		}
	}
	cells, err := l.measure(keys)
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string]Pair, len(lsNames))
	for i, k := range keys {
		if out[k.ls] == nil {
			out[k.ls] = make(map[string]Pair, len(batchNames))
		}
		out[k.ls][k.batch] = cells[i].p
	}
	return out, nil
}

// Solo measures each named workload alone on a core configured by cfg;
// core.Solo() gives the full-core normalisation baseline of every
// slowdown/speedup figure.
func (l *Lab) Solo(cfg core.Config, names ...string) (map[string]sampling.Agg, error) {
	keys := make([]cellKey, len(names))
	for i, n := range names {
		keys[i] = cellKey{cfg: cfg, ls: n}
	}
	cells, err := l.measure(keys)
	if err != nil {
		return nil, err
	}
	out := make(map[string]sampling.Agg, len(names))
	for i, n := range names {
		out[n] = cells[i].p.LSAgg
	}
	return out, nil
}

// measure returns the cells for keys, running the ones no caller has run
// yet in parallel.
func (l *Lab) measure(keys []cellKey) ([]*cell, error) {
	cells := make([]*cell, len(keys))
	jobs := make([]sampling.Job, len(keys))
	for i, k := range keys {
		v, _ := l.cells.LoadOrStore(k, new(cell))
		c := v.(*cell)
		cells[i] = c
		jobs[i] = func() error {
			c.once.Do(func() { c.p, c.err = l.run(k) })
			return c.err
		}
	}
	if err := sampling.Parallel(jobs); err != nil {
		return nil, err
	}
	return cells, nil
}

// run simulates one cell.
func (l *Lab) run(k cellKey) (Pair, error) {
	l.runs.Add(1)
	lp, err := workload.Lookup(k.ls)
	if err != nil {
		return Pair{}, err
	}
	if k.batch == "" {
		a, err := sampling.Solo(k.cfg, lp, l.spec)
		return Pair{LS: k.ls, LSAgg: a}, err
	}
	bp, err := workload.Lookup(k.batch)
	if err != nil {
		return Pair{}, err
	}
	a0, a1, err := sampling.Colocated(k.cfg, lp, bp, l.spec)
	return Pair{LS: k.ls, Batch: k.batch, LSAgg: a0, BatchAgg: a1}, err
}

// Slowdown returns 1 - colocated/solo (positive = performance loss).
func Slowdown(colocatedIPC, soloIPC float64) float64 {
	if soloIPC <= 0 {
		return 0
	}
	return 1 - colocatedIPC/soloIPC
}

// Speedup returns colocated/baseline - 1 (positive = gain over baseline).
func Speedup(ipc, baselineIPC float64) float64 {
	if baselineIPC <= 0 {
		return 0
	}
	return ipc/baselineIPC - 1
}
