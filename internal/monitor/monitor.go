// Package monitor implements the Stretch software control plane of §IV-C:
// a CPI2-style monitor that watches a QoS signal (windowed tail latency, or
// optionally queue length) and drives the architecturally exposed control
// bits — the S-bit engaging Stretch and the B/Q selector — with hysteresis,
// falling back to co-runner throttling when even Q-mode cannot restore QoS,
// exactly as the paper layers Stretch onto the CPI2 mitigation ladder.
//
// Invariant: the Controller is a pure state machine over its observation
// sequence — no clocks, no randomness, no dependence on the core model's
// timing — so identical observations always replay to identical actions.
// Its tuning is the paper's one fixed ladder (package constants) plus the
// signal and target it holds by value, so a copy is a fully independent
// controller and two copies fed the same observations compare equal with
// ==: the fleet engine holds controllers by value, one per core.
package monitor

import (
	"fmt"

	"stretch/internal/core"
)

// Action is the mitigation the controller requests after an observation.
type Action int

// Actions, in escalation order.
const (
	ActionNone         Action = iota // keep current mode
	ActionEngageB                    // slack detected: give the batch thread the big partition
	ActionBaseline                   // revert to equal partitioning
	ActionEngageQ                    // high load: give the LS thread the big partition
	ActionThrottleCo                 // persistent violation: throttle the co-runner (CPI2 ladder)
	ActionStopThrottle               // violation cleared: release the co-runner
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionEngageB:
		return "engage-B"
	case ActionBaseline:
		return "baseline"
	case ActionEngageQ:
		return "engage-Q"
	case ActionThrottleCo:
		return "throttle-corunner"
	case ActionStopThrottle:
		return "stop-throttle"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Signal selects the QoS metric the controller reads.
type Signal int

// Signals.
const (
	// SignalTailLatency compares windowed tail latency to the target
	// (the paper's primary, "representative and easily-available" metric).
	SignalTailLatency Signal = iota
	// SignalQueueLength uses instantaneous queue depth thresholds (the
	// paper's suggested alternative, after Rubik).
	SignalQueueLength
)

// The controller's tuning: B-mode engages when the tail sits below
// engageBelow × target and is left above disengageAbove × target (with
// the queue-length signal, at most queueEngageBelow waiting requests and
// at least queueDisengageAbove). Every condition must hold for hysteresis
// consecutive windows before the controller acts — mode flips flush both
// pipelines, so flapping is costly — and throttleAfter consecutive
// violating windows outside B-mode throttle the co-runner.
const (
	engageBelow         = 0.70
	disengageAbove      = 0.95
	queueEngageBelow    = 1
	queueDisengageAbove = 4
	hysteresis          = 2
	throttleAfter       = 4
)

// Config selects the controller's signal and tail-latency target.
type Config struct {
	// Signal selects the QoS metric.
	Signal Signal
	// TargetMs is the tail-latency QoS target.
	TargetMs float64
}

// DefaultConfig returns the tail-latency-driven tuning for targetMs.
func DefaultConfig(targetMs float64) Config {
	return Config{Signal: SignalTailLatency, TargetMs: targetMs}
}

// Validate rejects unusable tunings.
func (c Config) Validate() error {
	if c.TargetMs <= 0 && c.Signal == SignalTailLatency {
		return fmt.Errorf("monitor: non-positive target")
	}
	return nil
}

// Controller is the mode state machine. It is deliberately free of any
// timing dependence on the core model: callers feed it one observation per
// monitoring window and apply the returned action.
//
// The target and signal are held by value (queueLen: SignalQueueLength);
// the fields are ordered so the one-byte fields pack into one word (56 B
// in all).
type Controller struct {
	targetMs float64

	lowStreak  int
	highStreak int
	violStreak int
	lastTail   float64
	switches   uint64

	queueLen  bool
	mode      core.Mode
	throttled bool
	observed  bool
}

// New builds a controller starting in Baseline mode.
func New(cfg Config) (*Controller, error) {
	c := &Controller{}
	if err := c.Reset(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset reinitialises the controller in place for cfg, starting in Baseline
// mode with all streaks and the switch count cleared. It allocates
// nothing.
func (c *Controller) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	*c = Controller{targetMs: cfg.TargetMs, queueLen: cfg.Signal == SignalQueueLength, mode: core.ModeBaseline}
	return nil
}

// Mode returns the currently engaged Stretch mode.
func (c *Controller) Mode() core.Mode { return c.mode }

// Throttled reports whether the co-runner is currently throttled.
func (c *Controller) Throttled() bool { return c.throttled }

// Switches returns how many mode changes the controller has requested.
func (c *Controller) Switches() uint64 { return c.switches }

// LastTailMs returns the most recently observed windowed tail latency
// (0 before the first observation).
func (c *Controller) LastTailMs() float64 { return c.lastTail }

// Slack returns the controller's current headroom below its tail-latency
// target as a fraction of the target: (target − lastTail)/target. Positive
// slack means the service runs below target — the reserve the batch thread
// can harvest (§IV-C); negative slack is a QoS violation. Before any
// observation, or when the controller is not tail-latency driven, Slack
// returns 0.
func (c *Controller) Slack() float64 {
	if !c.observed || c.targetMs <= 0 {
		return 0
	}
	return (c.targetMs - c.lastTail) / c.targetMs
}

// Observation is one monitoring window's QoS reading.
type Observation struct {
	// TailMs is the window's latency at the QoS quantile.
	TailMs float64
	// QueueLen is the queue depth sample (SignalQueueLength).
	QueueLen int
}

// Observe consumes one window and returns the action the system software
// should take. The controller assumes the action is applied.
func (c *Controller) Observe(o Observation) Action {
	c.lastTail = o.TailMs
	c.observed = true
	low, high := c.classify(o)

	if low {
		c.lowStreak++
	} else {
		c.lowStreak = 0
	}
	if high {
		c.highStreak++
	} else {
		c.highStreak = 0
		c.violStreak = 0
	}

	switch {
	case high:
		// QoS pressure: leave B-mode first (straight to Q-mode), then
		// escalate.
		if c.mode == core.ModeB && c.highStreak >= hysteresis {
			c.mode = core.ModeQ
			c.switches++
			c.highStreak = 0
			return ActionEngageQ
		}
		if c.mode != core.ModeB {
			c.violStreak++
			if !c.throttled && c.violStreak >= throttleAfter {
				c.throttled = true
				return ActionThrottleCo
			}
			if c.mode == core.ModeBaseline && c.highStreak >= hysteresis {
				c.mode = core.ModeQ
				c.switches++
				return ActionEngageQ
			}
		}
	case low:
		if c.throttled {
			c.throttled = false
			c.violStreak = 0
			return ActionStopThrottle
		}
		if c.mode != core.ModeB && c.lowStreak >= hysteresis {
			c.mode = core.ModeB
			c.switches++
			return ActionEngageB
		}
	default:
		// Mid band: a Q-mode engagement relaxes to baseline once
		// pressure subsides.
		if c.mode == core.ModeQ && c.lowStreak == 0 && c.highStreak == 0 {
			c.mode = core.ModeBaseline
			c.switches++
			return ActionBaseline
		}
	}
	return ActionNone
}

func (c *Controller) classify(o Observation) (low, high bool) {
	if c.queueLen {
		return o.QueueLen <= queueEngageBelow, o.QueueLen >= queueDisengageAbove
	}
	return o.TailMs < engageBelow*c.targetMs, o.TailMs > disengageAbove*c.targetMs
}
