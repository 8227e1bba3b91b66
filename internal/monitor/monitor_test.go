package monitor

import (
	"testing"
	"unsafe"

	"stretch/internal/core"
)

func newCtl(t *testing.T, mut ...func(*Config)) *Controller {
	t.Helper()
	cfg := DefaultConfig(100)
	for _, m := range mut {
		m(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestValidation(t *testing.T) {
	if _, err := New(DefaultConfig(0)); err == nil {
		t.Error("zero tail-latency target accepted")
	}
	if _, err := New(Config{Signal: SignalQueueLength}); err != nil {
		t.Errorf("queue-length signal needs no target: %v", err)
	}
}

func TestEngagesBAfterHysteresis(t *testing.T) {
	c := newCtl(t)
	// One low window is not enough (hysteresis 2).
	if a := c.Observe(Observation{TailMs: 30}); a != ActionNone {
		t.Fatalf("engaged after one window: %v", a)
	}
	if c.Mode() != core.ModeBaseline {
		t.Fatal("mode changed prematurely")
	}
	if a := c.Observe(Observation{TailMs: 30}); a != ActionEngageB {
		t.Fatalf("second low window: %v, want engage-B", a)
	}
	if c.Mode() != core.ModeB {
		t.Fatal("mode not B after engage")
	}
	if c.Switches() != 1 {
		t.Fatalf("switches = %d", c.Switches())
	}
}

func TestMidBandHoldsState(t *testing.T) {
	c := newCtl(t)
	for i := 0; i < 10; i++ {
		if a := c.Observe(Observation{TailMs: 85}); a != ActionNone {
			t.Fatalf("mid-band observation caused %v", a)
		}
	}
	if c.Mode() != core.ModeBaseline {
		t.Fatal("mid band must not change mode")
	}
}

func TestLeavesBUnderPressureThenEscalates(t *testing.T) {
	c := newCtl(t)
	c.Observe(Observation{TailMs: 20})
	c.Observe(Observation{TailMs: 20})
	if c.Mode() != core.ModeB {
		t.Fatal("setup: not in B")
	}
	// Two high windows: leave B, straight to Q.
	c.Observe(Observation{TailMs: 99})
	a := c.Observe(Observation{TailMs: 99})
	if a != ActionEngageQ {
		t.Fatalf("pressure exit action = %v, want engage-Q", a)
	}
	if c.Mode() != core.ModeQ {
		t.Fatalf("mode = %v", c.Mode())
	}
}

func TestThrottlesAfterPersistentViolation(t *testing.T) {
	c := newCtl(t)
	// Persistent violation from baseline: engage Q first, keep violating,
	// then throttle.
	var acts []Action
	for i := 0; i < 8; i++ {
		acts = append(acts, c.Observe(Observation{TailMs: 120}))
	}
	sawQ, sawThrottle := false, false
	for _, a := range acts {
		if a == ActionEngageQ {
			sawQ = true
		}
		if a == ActionThrottleCo {
			sawThrottle = true
		}
	}
	if !sawQ || !sawThrottle {
		t.Fatalf("escalation ladder incomplete: %v", acts)
	}
	if !c.Throttled() {
		t.Fatal("controller not in throttled state")
	}
	// Load drops: throttle released.
	a := c.Observe(Observation{TailMs: 20})
	if a != ActionStopThrottle {
		t.Fatalf("low window while throttled = %v, want stop-throttle", a)
	}
	if c.Throttled() {
		t.Fatal("still throttled after release")
	}
}

func TestQRelaxesToBaselineInMidBand(t *testing.T) {
	c := newCtl(t)
	for i := 0; i < 4; i++ {
		c.Observe(Observation{TailMs: 120})
	}
	if c.Mode() != core.ModeQ {
		t.Fatalf("setup: mode = %v", c.Mode())
	}
	a := c.Observe(Observation{TailMs: 85})
	if a != ActionBaseline || c.Mode() != core.ModeBaseline {
		t.Fatalf("Q did not relax in mid band: %v / %v", a, c.Mode())
	}
}

func TestQueueLengthSignal(t *testing.T) {
	c := newCtl(t, func(cfg *Config) { cfg.Signal = SignalQueueLength })
	c.Observe(Observation{QueueLen: 0})
	if a := c.Observe(Observation{QueueLen: 0}); a != ActionEngageB {
		t.Fatalf("short queue did not engage B: %v", a)
	}
	c.Observe(Observation{QueueLen: 10})
	if a := c.Observe(Observation{QueueLen: 10}); a != ActionEngageQ {
		t.Fatalf("long queue did not escalate: %v", a)
	}
}

func TestHysteresisPreventsFlapping(t *testing.T) {
	c := newCtl(t)
	// Alternate low/high every window: streaks never build, mode holds.
	for i := 0; i < 40; i++ {
		tail := 20.0
		if i%2 == 1 {
			tail = 99
		}
		c.Observe(Observation{TailMs: tail})
	}
	if c.Switches() > 1 {
		t.Fatalf("flapping inputs caused %d switches", c.Switches())
	}
}

// TestSlackReflectsLastObservation pins the headroom reading the fleet
// engine publishes in its window observations: (target − tail)/target
// after each Observe, 0 before any observation, negative on violation.
func TestSlackReflectsLastObservation(t *testing.T) {
	c := newCtl(t) // target 100ms
	if c.Slack() != 0 || c.LastTailMs() != 0 {
		t.Fatalf("unobserved controller reports slack %v tail %v", c.Slack(), c.LastTailMs())
	}
	c.Observe(Observation{TailMs: 30})
	if c.LastTailMs() != 30 {
		t.Fatalf("last tail %v, want 30", c.LastTailMs())
	}
	if got := c.Slack(); got != 0.7 {
		t.Fatalf("slack %v, want 0.7", got)
	}
	c.Observe(Observation{TailMs: 150})
	if got := c.Slack(); got != -0.5 {
		t.Fatalf("violating slack %v, want -0.5", got)
	}
	c.Observe(Observation{TailMs: 100})
	if got := c.Slack(); got != 0 {
		t.Fatalf("at-target slack %v, want 0", got)
	}
}

func TestActionStrings(t *testing.T) {
	for a := ActionNone; a <= ActionStopThrottle; a++ {
		if a.String() == "" {
			t.Fatalf("action %d has empty string", a)
		}
	}
	if Action(99).String() == "" {
		t.Fatal("unknown action must format")
	}
}

// TestCopiesShareTuning: a controller holds its whole tuning by value, so
// the fleet engine's per-core controllers stay at 56 B, Reset allocates
// nothing, and copies fed the same observations stay == (the cohort
// walk's span key compares controllers by value).
func TestCopiesShareTuning(t *testing.T) {
	if got := unsafe.Sizeof(Controller{}); got > 56 {
		t.Fatalf("Controller is %d B, want at most 56", got)
	}
	var c Controller
	cfg := DefaultConfig(100)
	if n := testing.AllocsPerRun(100, func() { _ = c.Reset(cfg) }); n != 0 {
		t.Fatalf("Reset allocates %v times, want 0", n)
	}
	a := newCtl(t)
	b := *a
	for _, tail := range []float64{10, 10, 99, 10} {
		a.Observe(Observation{TailMs: tail})
		b.Observe(Observation{TailMs: tail})
	}
	if *a != b {
		t.Fatal("copies fed the same observations diverged")
	}
}
