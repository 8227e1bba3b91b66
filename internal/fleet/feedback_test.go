package fleet

import (
	"testing"

	"stretch/internal/loadgen"
	"stretch/internal/workload"
)

// feedbackConfig is a two-client fleet engineered so the closed loop has a
// clear signal the open-loop demand model cannot see: both clients run at
// ~93% of their per-core saturation, which puts web search past the knee
// of its 100ms target (violating) while media streaming — whose 2s target
// sits thirty mean service times out — still has enormous measured slack.
// Demand-proportional allocation treats the two identically; only the
// measurements tell them apart.
func feedbackConfig(policy Policy) Config {
	return Config{
		Servers: 4, CoresPerServer: 4,
		Traffic: loadgen.Traffic{
			Windows: 16, WindowSec: 300,
			Clients: []loadgen.Client{
				{Name: "search", Service: workload.WebSearch, Fraction: 0.7,
					Spec: loadgen.Spec{Shape: loadgen.Constant{Rate: 10200}}},
				{Name: "video", Service: workload.MediaStreaming, Fraction: 0.3,
					Spec: loadgen.Spec{Shape: loadgen.Constant{Rate: 1000}}},
			},
		},
		BatchSpeedupB: 0.13, LSSlowdownB: 0.07,
		WindowRequests: 200, Seed: 1,
		Scheduler: SchedulerConfig{Policy: policy},
	}
}

// TestFeedbackStealsFromSlackRich: the violating client must end up with
// more core-windows under feedback than under proportional, taken from the
// slack-rich client, and violations must drop. Both policies run the same
// allocation until the first violation, so the violations before feedback
// reacts are common to both; the run is twice feedbackConfig's horizon so
// that what follows outweighs one realisation of a handful of violating
// core-windows.
func TestFeedbackStealsFromSlackRich(t *testing.T) {
	run := func(policy Policy) (Result, error) {
		cfg := feedbackConfig(policy)
		cfg.Traffic.Windows *= 2
		return Run(cfg)
	}
	prop, err := run(PolicyProportional)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := run(PolicyFeedback)
	if err != nil {
		t.Fatal(err)
	}
	if prop.ViolationWindows == 0 {
		t.Fatal("proportional has no violations; the scenario gives feedback nothing to react to")
	}
	if fb.Clients[0].CoreWindows <= prop.Clients[0].CoreWindows {
		t.Errorf("feedback gave the violating client %d core-windows, proportional %d; want more",
			fb.Clients[0].CoreWindows, prop.Clients[0].CoreWindows)
	}
	if fb.Clients[1].CoreWindows >= prop.Clients[1].CoreWindows {
		t.Errorf("feedback kept the slack-rich client at %d core-windows, proportional %d; want fewer",
			fb.Clients[1].CoreWindows, prop.Clients[1].CoreWindows)
	}
	if fb.ViolationWindows >= prop.ViolationWindows {
		t.Errorf("feedback violated %d core-windows, want fewer than proportional's %d",
			fb.ViolationWindows, prop.ViolationWindows)
	}
}

// TestFeedbackWeightsReact drives the pressure weights directly:
// violations grow a client's weight and force the rebalance, slack decays
// it, and both stay clamped.
func TestFeedbackWeightsReact(t *testing.T) {
	e := &elastic{
		sched:   SchedulerConfig{Policy: PolicyFeedback}.WithDefaults(),
		n:       2,
		sat:     []float64{1000, 1000},
		fracs:   []float64{0.5, 0.5},
		load:    []float64{500, 500},
		demand:  make([]float64, 2),
		weight:  []float64{1, 1},
		nActive: 8,
	}

	// Window 0 (no observation): neutral weights, proportional split.
	if e.updateWeights(nil) {
		t.Fatal("window 0 forced a rebalance without an observation")
	}
	got := e.desired()
	if got[0] != got[1] {
		t.Fatalf("neutral weights split unevenly: %v", got)
	}
	if e.weight[0] != 1 || e.weight[1] != 1 {
		t.Fatalf("weights %v moved without an observation, want 1s", e.weight)
	}

	// Client 0 violates on half its cores; client 1 is slack-rich.
	obs := &WindowObservation{Violations: 2, Clients: []ClientWindowObs{
		{Cores: 4, Violations: 2},
		{Cores: 4, MeanSlack: 0.8},
	}}
	if !e.updateWeights(obs) {
		t.Fatal("a measured violation did not force the rebalance")
	}
	got = e.desired()
	if e.weight[0] <= 1 {
		t.Fatalf("violating client's weight %v did not grow", e.weight[0])
	}
	if e.weight[1] >= 1 {
		t.Fatalf("slack-rich client's weight %v did not decay", e.weight[1])
	}
	if got[0] <= got[1] {
		t.Fatalf("violating client got %d cores <= slack-rich client's %d", got[0], got[1])
	}

	// Sustained pressure saturates at the clamps, never beyond.
	for i := 0; i < 100; i++ {
		e.updateWeights(obs)
	}
	if e.weight[0] != feedbackMaxWeight {
		t.Fatalf("weight %v did not clamp at max %v", e.weight[0], feedbackMaxWeight)
	}
	if e.weight[1] != feedbackMinWeight {
		t.Fatalf("weight %v did not clamp at min %v", e.weight[1], feedbackMinWeight)
	}

	// A client squeezed to zero cores relaxes back toward neutral rather
	// than starving forever.
	starved := &WindowObservation{Clients: []ClientWindowObs{
		{Cores: 8, MeanSlack: 0.8},
		{Cores: 0},
	}}
	before := e.weight[1]
	e.updateWeights(starved)
	if e.weight[1] <= before {
		t.Fatalf("starved client's weight %v did not recover from %v", e.weight[1], before)
	}
}

// TestFeedbackObservationPlumbed checks Run actually feeds measurements to
// the scheduler: with the loop closed the schedule must diverge from the
// open-loop proportional schedule on the same traffic.
func TestFeedbackObservationPlumbed(t *testing.T) {
	prop, err := Run(feedbackConfig(PolicyProportional))
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Run(feedbackConfig(PolicyFeedback))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for w := range fb.WindowTrace {
		for ci := range fb.WindowTrace[w].Clients {
			if fb.WindowTrace[w].Clients[ci].Cores != prop.WindowTrace[w].Clients[ci].Cores {
				same = false
			}
		}
	}
	if same {
		t.Fatal("feedback produced the identical core series to proportional; observations are not reaching the scheduler")
	}
}
