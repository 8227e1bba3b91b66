package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"stretch/internal/fleet"
)

// weekPlanParams is the capacity-planning configuration for the committed
// week trace: search 2–8 servers × 4 cores for the smallest fleet keeping
// the feedback policy within 150 violating core-windows over the 7 days.
// The range starts at 2 because the violation count is only monotone once
// the fleet is large enough for every client to hold at least one core
// per window; the 1-server point sits below that regime.
func weekPlanParams() planParams {
	return planParams{
		fleetParams: fleetParams{
			trace: weekTracePath, cores: 4,
			policy: "feedback", estimator: "histogram",
			windowReq: 150, seed: 1,
			bSpeedup: 0.13, lsSlowdown: 0.07,
		},
		minServers: 2, maxServers: 8, budget: 150,
	}
}

// cheapPlanParams is a lighter variant (fewer simulated requests per
// core-window, tighter range) for the worker-independence and property
// tests that run the search repeatedly.
func cheapPlanParams() planParams {
	p := weekPlanParams()
	p.minServers, p.maxServers = 3, 8
	p.windowReq, p.budget = 60, 8
	return p
}

// TestPlanGolden locks the `stretchsim plan` report byte-for-byte on the
// committed week trace: every probe the bisection evaluates, and the
// minimum capacity it settles on.
func TestPlanGolden(t *testing.T) {
	p := weekPlanParams()
	spec, hours, err := buildPlanSpec(p)
	if err != nil {
		t.Fatal(err)
	}
	if hours != 168 {
		t.Fatalf("plan adopted %v hours from the trace, want 168", hours)
	}
	plan, err := fleet.PlanCapacity(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatal("week-trace plan infeasible at the 8-server ceiling")
	}
	checkGolden(t, filepath.Join("testdata", "plan_week.golden"), []byte(formatPlan(p, hours, plan)))
}

// TestPlanWorkerIndependence: the planned capacity — and every probe along
// the way — is bit-identical regardless of the worker pool size (the -race
// CI job runs this, covering the determinism contract under the race
// detector).
func TestPlanWorkerIndependence(t *testing.T) {
	run := func(workers int) fleet.CapacityPlan {
		p := cheapPlanParams()
		p.workers = workers
		spec, _, err := buildPlanSpec(p)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := fleet.PlanCapacity(spec)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	base := run(1)
	if !base.Feasible {
		t.Fatal("cheap week-trace plan infeasible")
	}
	for _, workers := range []int{5, 16} {
		if got := run(workers); !reflect.DeepEqual(base, got) {
			t.Fatalf("plan with %d workers diverged from 1 worker:\n got %+v\nbase %+v", workers, got, base)
		}
	}
}

// TestPlanMonotoneOnWeekTrace is the property the bisection relies on,
// checked against the real committed trace: over the search range,
// violating core-windows are non-increasing in fleet size, and the
// bisection's answer equals an exhaustive linear scan's.
func TestPlanMonotoneOnWeekTrace(t *testing.T) {
	p := cheapPlanParams()
	spec, _, err := buildPlanSpec(p)
	if err != nil {
		t.Fatal(err)
	}
	linear := -1
	prev := -1
	for k := p.minServers; k <= p.maxServers; k++ {
		cfg := spec.Config
		cfg.Servers = k
		res, err := fleet.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && res.ViolationWindows > prev {
			t.Fatalf("violations not monotone: %d servers has %d, %d servers had %d",
				k, res.ViolationWindows, k-1, prev)
		}
		prev = res.ViolationWindows
		if linear < 0 && res.ViolationWindows <= p.budget {
			linear = k
		}
	}
	if linear < 0 {
		t.Fatalf("no fleet in %d-%d meets budget %d", p.minServers, p.maxServers, p.budget)
	}
	plan, err := fleet.PlanCapacity(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible || plan.Servers != linear {
		t.Fatalf("bisection picked %d servers (feasible=%v), linear scan says %d",
			plan.Servers, plan.Feasible, linear)
	}
}

// TestBuildPlanSpecRejectsBadInput: named generative specs are rejected
// (their offered load is anchored to the fleet size, so a capacity search
// over them is circular), as are unreadable trace paths, a negative SLO
// budget and a search floor outside [1, max-servers] — all before any
// probe runs, so the CLI reports them as usage errors.
func TestBuildPlanSpecRejectsBadInput(t *testing.T) {
	for _, trace := range []string{"mixed", "failover", "testdata/definitely-missing.trace.csv"} {
		p := weekPlanParams()
		p.trace = trace
		if _, _, err := buildPlanSpec(p); err == nil {
			t.Errorf("trace %q accepted", trace)
		}
	}
	bad := map[string]func(*planParams){
		"negative budget":     func(p *planParams) { p.budget = -1 },
		"floor above ceiling": func(p *planParams) { p.minServers, p.maxServers = 70, 64 },
		"negative floor":      func(p *planParams) { p.minServers = -3 },
		"zero floor":          func(p *planParams) { p.minServers = 0 },
	}
	for name, mutate := range bad {
		p := weekPlanParams()
		mutate(&p)
		if _, _, err := buildPlanSpec(p); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
