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
// Its tuning is held by pointer and never written after Reset, so copies
// of one controller share it: the fleet engine holds controllers by value,
// one per core, and every core of a client shares that client's tuning.
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

// Config tunes the controller.
type Config struct {
	// Signal selects the QoS metric.
	Signal Signal

	// TargetMs is the tail-latency QoS target.
	TargetMs float64
	// EngageBelow engages B-mode when tail < EngageBelow × target.
	EngageBelow float64
	// DisengageAbove leaves B-mode when tail > DisengageAbove × target.
	DisengageAbove float64

	// QueueEngageBelow / QueueDisengageAbove are the queue-length
	// equivalents (requests waiting).
	QueueEngageBelow    int
	QueueDisengageAbove int

	// QModeAvailable provisions the optional Q-mode configuration.
	QModeAvailable bool

	// Hysteresis is how many consecutive windows a condition must hold
	// before the controller acts — mode flips flush both pipelines, so
	// flapping is costly.
	Hysteresis int
	// ThrottleAfter is how many consecutive violating windows (after
	// leaving B-mode) trigger co-runner throttling.
	ThrottleAfter int
}

// DefaultConfig returns the controller tuning used by the experiments.
func DefaultConfig(targetMs float64) Config {
	return Config{
		Signal:              SignalTailLatency,
		TargetMs:            targetMs,
		EngageBelow:         0.70,
		DisengageAbove:      0.95,
		QueueEngageBelow:    1,
		QueueDisengageAbove: 4,
		QModeAvailable:      true,
		Hysteresis:          2,
		ThrottleAfter:       4,
	}
}

// Validate rejects unusable tunings.
func (c Config) Validate() error {
	switch {
	case c.TargetMs <= 0 && c.Signal == SignalTailLatency:
		return fmt.Errorf("monitor: non-positive target")
	case c.EngageBelow <= 0 || c.EngageBelow >= c.DisengageAbove:
		return fmt.Errorf("monitor: engage threshold must be in (0, disengage)")
	case c.Hysteresis < 1:
		return fmt.Errorf("monitor: hysteresis must be >= 1")
	case c.ThrottleAfter < 1:
		return fmt.Errorf("monitor: throttle-after must be >= 1")
	}
	return nil
}

// Controller is the mode state machine. It is deliberately free of any
// timing dependence on the core model: callers feed it one observation per
// monitoring window and apply the returned action.
//
// The tuning is shared, not copied: cfg points at the Config given to
// Reset and is read-only afterwards. The scalar state is ordered so the
// three one-byte fields pack into one word (56 B in all).
type Controller struct {
	cfg *Config

	lowStreak  int
	highStreak int
	violStreak int
	lastTail   float64
	switches   uint64

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
// mode with all streaks and the switch count cleared. It stores one heap
// copy of cfg, which every later copy of the controller shares; callers
// that hold many controllers of one tuning (the fleet engine) Reset one
// and copy it rather than Reset each.
func (c *Controller) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	*c = Controller{cfg: &cfg, mode: core.ModeBaseline}
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
	if !c.observed || c.cfg.TargetMs <= 0 {
		return 0
	}
	return (c.cfg.TargetMs - c.lastTail) / c.cfg.TargetMs
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
		// QoS pressure: leave B-mode first, then escalate.
		if c.mode == core.ModeB && c.highStreak >= c.cfg.Hysteresis {
			c.mode = c.modeUnderPressure()
			c.switches++
			c.highStreak = 0
			return c.actionFor(c.mode)
		}
		if c.mode != core.ModeB {
			c.violStreak++
			if !c.throttled && c.violStreak >= c.cfg.ThrottleAfter {
				c.throttled = true
				return ActionThrottleCo
			}
			if c.mode == core.ModeBaseline && c.cfg.QModeAvailable &&
				c.highStreak >= c.cfg.Hysteresis {
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
		if c.mode != core.ModeB && c.lowStreak >= c.cfg.Hysteresis {
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
	if c.cfg.Signal == SignalQueueLength {
		return o.QueueLen <= c.cfg.QueueEngageBelow, o.QueueLen >= c.cfg.QueueDisengageAbove
	}
	return o.TailMs < c.cfg.EngageBelow*c.cfg.TargetMs,
		o.TailMs > c.cfg.DisengageAbove*c.cfg.TargetMs
}

func (c *Controller) modeUnderPressure() core.Mode {
	if c.cfg.QModeAvailable {
		return core.ModeQ
	}
	return core.ModeBaseline
}

func (c *Controller) actionFor(m core.Mode) Action {
	if m == core.ModeQ {
		return ActionEngageQ
	}
	return ActionBaseline
}
