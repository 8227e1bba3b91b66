package fleet

import (
	"reflect"
	"testing"

	"stretch/internal/loadgen"
	"stretch/internal/stats"
)

func TestParseAutoscalePolicy(t *testing.T) {
	for s, want := range map[string]AutoscalePolicy{
		"":          AutoscaleOff,
		"off":       AutoscaleOff,
		"util":      AutoscaleUtil,
		"violation": AutoscaleViolation,
	} {
		got, err := ParseAutoscalePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseAutoscalePolicy(%q) = %v, %v", s, got, err)
		}
		if s != "" && got.String() != s {
			t.Errorf("round trip %q -> %q", s, got.String())
		}
	}
	if _, err := ParseAutoscalePolicy("elastic"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestAutoscaleConfigValidate(t *testing.T) {
	if err := (AutoscaleConfig{}).Validate(4); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if err := (AutoscaleConfig{Policy: AutoscaleUtil, MinServers: 2}).Validate(4); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []AutoscaleConfig{
		{Policy: AutoscalePolicy(9)},
		{Policy: AutoscalePolicy(-1)},
		{Custom: fixedScale(1)}, // custom scaler with the off policy
		{Policy: AutoscaleUtil, MinServers: -1},
		{Policy: AutoscaleUtil, MinServers: 5},
		{MinServers: 3},  // a floor with the off policy
		{MinServers: -1}, // likewise, and negative
	}
	for i, a := range bad {
		if err := a.Validate(4); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, a)
		}
	}
}

// fixedScale is a custom Autoscaler that always wants k servers.
type fixedScale int

func (f fixedScale) DesiredServers(int, *WindowObservation, ScaleState) int { return int(f) }

// windowScale is a custom Autoscaler scripted per window.
type windowScale func(w int) int

func (f windowScale) DesiredServers(w int, _ *WindowObservation, _ ScaleState) int { return f(w) }

// TestAutoscaleWarmupCost pins the warm-up semantics on the open-loop
// schedule: a scripted autoscaler parks the highest-index server for
// windows 2-3 under PolicyStatic. The parked cores keep their owner, so
// the only migration cost over the whole horizon is the warm-up the two
// rejoining cores pay at window 4 — resuming the same client is otherwise
// free.
func TestAutoscaleWarmupCost(t *testing.T) {
	cfg := planConfig(PolicyStatic)
	cfg.Autoscale = AutoscaleConfig{Policy: AutoscaleUtil, Custom: windowScale(func(w int) int {
		if w == 2 || w == 3 {
			return 3
		}
		return 4
	})}
	p := mustPlan(t, cfg)
	// Server 3 (cores 6,7) parks for windows 2 and 3.
	for _, c := range []int{6, 7} {
		for w := 0; w < 10; w++ {
			switch {
			case w == 2 || w == 3:
				if p.client[c][w] != coreParked {
					t.Fatalf("core %d window %d not parked: %d", c, w, p.client[c][w])
				}
				if p.rate[c][w] != 0 {
					t.Fatalf("parked core %d window %d still gets rate %v", c, w, p.rate[c][w])
				}
			default:
				if p.client[c][w] != 1 {
					t.Fatalf("core %d window %d lost its owner: %d", c, w, p.client[c][w])
				}
			}
			if want := w == 4; p.migrated[c][w] != want {
				t.Fatalf("core %d window %d migrated=%v, want %v (warm-up only at rejoin)",
					c, w, p.migrated[c][w], want)
			}
		}
	}
	if p.parkedCoreWindows != 4 {
		t.Fatalf("parked core-windows %d != 4", p.parkedCoreWindows)
	}
	if p.migrations != 2 {
		t.Fatalf("migrations %d != 2 (one warm-up per rejoining core)", p.migrations)
	}
}

// TestAutoscaleComposesWithScenarioDrain: a scenario-drained server is
// accounted as drained (not parked) even while the fleet is autoscaled,
// the autoscaler can never unpark it, and — since the drain brings the
// server back to the same owner — its restore is migration-free.
func TestAutoscaleComposesWithScenarioDrain(t *testing.T) {
	cfg := planConfig(PolicyStatic)
	cfg.Scenario = loadgen.Scenario{Events: []loadgen.Event{
		{Kind: loadgen.EventDrain, Window: 2, Server: 3},
		{Kind: loadgen.EventRestore, Window: 6, Server: 3},
	}}
	cfg.Autoscale = AutoscaleConfig{Policy: AutoscaleUtil, Custom: fixedScale(4)}
	p := mustPlan(t, cfg)
	for _, c := range []int{6, 7} {
		for w := 2; w < 6; w++ {
			if p.client[c][w] != coreDrained {
				t.Fatalf("core %d window %d: %d, want drained (scenario wins over autoscaler)",
					c, w, p.client[c][w])
			}
		}
		if p.client[c][6] != 1 || p.migrated[c][6] {
			t.Fatalf("core %d restore: client %d migrated=%v, want its old owner penalty-free",
				c, p.client[c][6], p.migrated[c][6])
		}
	}
	if p.parkedCoreWindows != 0 || p.drainedCoreWindows != 8 {
		t.Fatalf("bookkeeping: %d parked, %d drained core-windows, want 0 and 8",
			p.parkedCoreWindows, p.drainedCoreWindows)
	}
	if p.migrations != 0 {
		t.Fatalf("migrations %d != 0", p.migrations)
	}
}

// TestUtilAutoscaler unit-tests the util policy's stepping logic directly.
func TestUtilAutoscaler(t *testing.T) {
	a := &utilAuto{}
	st := func(up int, demand float64) ScaleState {
		return ScaleState{AvailableServers: 8, UpServers: up, CoresPerServer: 4, DemandCores: demand}
	}
	// Window 0 jumps straight to the demand-implied size: mid-band 0.6,
	// 6 cores' worth of demand / 2.4 per server -> 3 servers.
	if got := a.DesiredServers(0, nil, st(8, 6)); got != 3 {
		t.Fatalf("window-0 sizing: %d, want 3", got)
	}
	// Utilisation inside the band: hold.
	if got := a.DesiredServers(1, nil, st(3, 6)); got != 3 {
		t.Fatalf("in-band hold: %d, want 3", got)
	}
	// Above the band: one step out, then the cooldown blocks the next.
	if got := a.DesiredServers(2, nil, st(3, 12)); got != 4 {
		t.Fatalf("scale-out: %d, want 4", got)
	}
	if got := a.DesiredServers(3, nil, st(4, 16)); got != 4 {
		t.Fatalf("cooldown violated: %d, want 4", got)
	}
	// Zero demand holds at least one server once the cooldown clears.
	b := &utilAuto{}
	if got := b.DesiredServers(0, nil, st(8, 0)); got != 1 {
		t.Fatalf("zero-demand sizing: %d, want 1", got)
	}
	// Below the band: one step in.
	c := &utilAuto{}
	if got := c.DesiredServers(1, nil, st(4, 1)); got != 3 {
		t.Fatalf("scale-in: %d, want 3", got)
	}
}

// TestViolationAutoscaler unit-tests the violation policy directly, at
// its fixed cooldown (autoCooldown, 4 windows) and slack run
// (autoSlackWindows, 8 windows).
func TestViolationAutoscaler(t *testing.T) {
	a := &violationAuto{}
	viol, quiet := &WindowObservation{Violations: 3}, &WindowObservation{}
	w := 0
	step := func(obs *WindowObservation, up int, demand float64, want int, what string) {
		t.Helper()
		st := ScaleState{AvailableServers: 8, UpServers: up, CoresPerServer: 4, DemandCores: demand}
		if got := a.DesiredServers(w, obs, st); got != want {
			t.Fatalf("window %d (%s): %d servers, want %d", w, what, got, want)
		}
		w++
	}
	// No measurement yet: start with everything available.
	step(nil, 0, 10, 8, "initial sizing")
	// A violating window scales out; the cooldown blocks a repeat until
	// autoCooldown windows have passed since the decision.
	step(viol, 4, 10, 5, "violation scale-out")
	for i := 1; i < autoCooldown; i++ {
		step(viol, 5, 10, 5, "cooldown")
	}
	step(viol, 5, 10, 6, "scale-out after cooldown")
	// Scale-in needs autoSlackWindows consecutive quiet, underutilised
	// windows.
	for i := 1; i < autoSlackWindows; i++ {
		step(quiet, 6, 1, 6, "slack run")
	}
	step(quiet, 6, 1, 5, "slack scale-in")
	// A violation resets the slack run: the quiet windows before it no
	// longer count, so a full run is needed again after it.
	for i := 1; i < autoSlackWindows; i++ {
		step(quiet, 5, 1, 5, "slack run")
	}
	step(viol, 5, 1, 6, "violation ends the slack run")
	for i := 1; i < autoSlackWindows; i++ {
		step(quiet, 6, 1, 6, "slack run after the reset")
	}
	step(quiet, 6, 1, 5, "scale-in after the reset")
}

// TestAutoscaleRunParksOffPeak: a full closed-loop run under the util
// policy on light traffic parks real capacity, reports it in the result
// partition, and echoes the policy.
func TestAutoscaleRunParksOffPeak(t *testing.T) {
	cfg := planConfig(PolicyProportional)
	cfg.Autoscale = AutoscaleConfig{Policy: AutoscaleUtil}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Autoscale != AutoscaleUtil {
		t.Fatalf("result echoes autoscale %v", res.Autoscale)
	}
	if res.ParkedCoreWindows == 0 {
		t.Fatal("util autoscaler parked nothing on light traffic")
	}
	parked := 0
	for _, o := range res.WindowTrace {
		parked += o.ParkedCores
		if o.ServingCores+o.DrainedCores+o.ParkedCores+o.IdleCores != res.Cores {
			t.Fatalf("window %d partition does not cover the fleet: %+v", o.Window, o)
		}
	}
	if parked != res.ParkedCoreWindows {
		t.Fatalf("window trace parked sum %d != result %d", parked, res.ParkedCoreWindows)
	}
	// Autoscaling off on the same config reports no parked capacity and no
	// policy echo — the zero-value config is byte-identical to pre-
	// autoscaling behaviour.
	off, err := Run(planConfig(PolicyProportional))
	if err != nil {
		t.Fatal(err)
	}
	if off.Autoscale != AutoscaleOff || off.ParkedCoreWindows != 0 {
		t.Fatalf("autoscale-off run reports %v / %d parked", off.Autoscale, off.ParkedCoreWindows)
	}
}

// TestAutoscaleDeterministicAcrossWorkerCounts extends the determinism
// contract to autoscaled runs: both built-in policies, the closed-loop
// scheduler, scenario events and both estimators — bit-identical results
// regardless of the worker count.
func TestAutoscaleDeterministicAcrossWorkerCounts(t *testing.T) {
	scenario := loadgen.Scenario{Events: []loadgen.Event{
		{Kind: loadgen.EventDrain, Window: 2, Server: 1},
		{Kind: loadgen.EventRestore, Window: 6, Server: 1},
		{Kind: loadgen.EventSurge, Window: 4, Until: 8, Client: "b", Factor: 1.5},
	}}
	for _, auto := range []AutoscalePolicy{AutoscaleUtil, AutoscaleViolation} {
		for _, policy := range []Policy{PolicyStatic, PolicyFeedback} {
			for _, withEvents := range []bool{false, true} {
				cfg := planConfig(policy)
				cfg.Traffic.Clients[0].Spec.Poisson = true
				cfg.Traffic.Clients[1].Spec.Poisson = true
				cfg.TailEstimator = stats.EstimatorHistogram
				cfg.Autoscale = AutoscaleConfig{Policy: auto}
				if withEvents {
					cfg.Scenario = scenario
				}
				one := cfg
				one.Workers = 1
				many := cfg
				many.Workers = 8
				a, err := Run(one)
				if err != nil {
					t.Fatalf("%v/%v events=%v: %v", auto, policy, withEvents, err)
				}
				b, err := Run(many)
				if err != nil {
					t.Fatalf("%v/%v events=%v: %v", auto, policy, withEvents, err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%v/%v events=%v: worker count perturbed the results", auto, policy, withEvents)
				}
			}
		}
	}
}
