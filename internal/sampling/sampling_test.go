package sampling

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"stretch/internal/core"
	"stretch/internal/workload"
)

func TestSoloDeterministicAndPositive(t *testing.T) {
	p, err := workload.Lookup("povray")
	if err != nil {
		t.Fatal(err)
	}
	spec := Quick()
	a, err := Solo(core.Solo(), p, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solo(core.Solo(), p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.IPC != b.IPC {
		t.Fatalf("same spec produced different IPC: %v vs %v", a.IPC, b.IPC)
	}
	if a.IPC <= 0 {
		t.Fatal("non-positive IPC")
	}
	if a.MLPTail[0] < a.MLPTail[1] || a.MLPTail[1] < a.MLPTail[2] {
		t.Fatal("MLP tail not monotone")
	}
}

func TestSeedChangesResults(t *testing.T) {
	p, _ := workload.Lookup("povray")
	s1 := Quick()
	s2 := Quick()
	s2.Seed = 999
	a, err := Solo(core.Solo(), p, s1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solo(core.Solo(), p, s2)
	if err != nil {
		t.Fatal(err)
	}
	if a.IPC == b.IPC {
		t.Fatal("different seeds produced identical IPC")
	}
}

func TestColocatedBothThreadsMeasured(t *testing.T) {
	lp, _ := workload.Lookup(workload.WebSearch)
	bp, _ := workload.Lookup(workload.Zeusmp)
	a0, a1, err := Colocated(core.Default(), lp, bp, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if a0.IPC <= 0 || a1.IPC <= 0 {
		t.Fatalf("IPC = %v / %v", a0.IPC, a1.IPC)
	}
	// The high-MLP batch thread must out-IPC the chase-bound service.
	if a1.IPC <= a0.IPC {
		t.Fatalf("zeusmp (%v) should out-IPC web-search (%v)", a1.IPC, a0.IPC)
	}
}

func TestColocatedRejectsBadConfig(t *testing.T) {
	lp, _ := workload.Lookup(workload.WebSearch)
	bp, _ := workload.Lookup(workload.Zeusmp)
	cfg := core.Default()
	cfg.Width = 0
	if _, _, err := Colocated(cfg, lp, bp, Quick()); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestParallelRunsAllJobs(t *testing.T) {
	var n int64
	jobs := make([]Job, 50)
	for i := range jobs {
		jobs[i] = func() error {
			atomic.AddInt64(&n, 1)
			return nil
		}
	}
	if err := Parallel(jobs); err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("ran %d/50 jobs", n)
	}
}

func TestParallelPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	jobs := []Job{
		func() error { return nil },
		func() error { return boom },
		func() error { return nil },
	}
	err := Parallel(jobs)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	if err := Parallel(nil); err != nil {
		t.Fatalf("empty job list: %v", err)
	}
}

func TestSeedForStability(t *testing.T) {
	a := seedFor(1, "x+y", 3, 0)
	b := seedFor(1, "x+y", 3, 0)
	if a != b {
		t.Fatal("seedFor not stable")
	}
	if seedFor(1, "x+y", 3, 1) == a || seedFor(1, "x+z", 3, 0) == a || seedFor(2, "x+y", 3, 0) == a {
		t.Fatal("seedFor collisions across labels/threads/seeds")
	}
}

func TestAggregateMath(t *testing.T) {
	ms := []core.ThreadMetrics{{IPC: 1}, {IPC: 3}}
	a := aggregate(ms)
	if a.IPC != 2 {
		t.Fatalf("mean IPC = %v", a.IPC)
	}
	if a.IPCStdDev != math.Sqrt2 { // sample variance of {1,3} = 2
		t.Fatalf("std dev = %v, want √2", a.IPCStdDev)
	}
	if aggregate(nil).IPC != 0 {
		t.Fatal("empty aggregate")
	}
}
