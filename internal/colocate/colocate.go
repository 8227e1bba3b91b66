// Package colocate is the experiment harness for the paper's SMT
// characterisation and Stretch evaluation: it runs latency-sensitive ×
// batch colocation grids under the various core configurations (baseline
// equal partitioning, Stretch B-/Q-mode skews, dynamic sharing, fetch
// throttling, single-resource sharing studies, idealised software
// scheduling) and normalises against solo full-core baselines.
//
// Invariant: every grid cell is a pure function of (workload pair, core
// config, sampling spec) — memoisation in the experiment context can only
// skip work, never change a number.
package colocate

import (
	"sync"

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

// Grid runs every (ls, batch) pair on cores configured by cfg, in parallel,
// and returns results indexed [ls][batch].
func Grid(lsNames, batchNames []string, cfg core.Config, spec sampling.Spec) (map[string]map[string]Pair, error) {
	var mu sync.Mutex
	out := make(map[string]map[string]Pair, len(lsNames))
	for _, ls := range lsNames {
		out[ls] = make(map[string]Pair, len(batchNames))
	}
	var jobs []sampling.Job
	for _, ls := range lsNames {
		for _, b := range batchNames {
			ls, b := ls, b
			jobs = append(jobs, func() error {
				lp, err := workload.Lookup(ls)
				if err != nil {
					return err
				}
				bp, err := workload.Lookup(b)
				if err != nil {
					return err
				}
				a0, a1, err := sampling.Colocated(cfg, lp, bp, spec)
				if err != nil {
					return err
				}
				mu.Lock()
				out[ls][b] = Pair{LS: ls, Batch: b, LSAgg: a0, BatchAgg: a1}
				mu.Unlock()
				return nil
			})
		}
	}
	if err := sampling.Parallel(jobs); err != nil {
		return nil, err
	}
	return out, nil
}

// SoloIPC measures each named workload alone on a full core (the
// normalisation baseline for every slowdown/speedup figure) in parallel.
func SoloIPC(names []string, spec sampling.Spec) (map[string]float64, error) {
	var mu sync.Mutex
	out := make(map[string]float64, len(names))
	var jobs []sampling.Job
	for _, n := range names {
		n := n
		jobs = append(jobs, func() error {
			p, err := workload.Lookup(n)
			if err != nil {
				return err
			}
			a, err := sampling.Solo(core.Solo(), p, spec)
			if err != nil {
				return err
			}
			mu.Lock()
			out[n] = a.IPC
			mu.Unlock()
			return nil
		})
	}
	if err := sampling.Parallel(jobs); err != nil {
		return nil, err
	}
	return out, nil
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
