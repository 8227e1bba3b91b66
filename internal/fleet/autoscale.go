// Autoscaling: servers join and leave the fleet between windows. The
// scheduler (scheduler.go) re-divides a *fixed* set of in-service cores;
// the autoscaler decides how many servers are in service at all, turning
// the simulator from "what happens with N cores" into the capacity
// question "how many cores do I need" (plan.go answers it offline).
//
// Once per window, before the scheduler assigns cores, the Autoscaler is
// fed the previous window's measured WindowObservation plus the current
// window's fleet state and returns the number of servers that should be
// up. The scheduler owns the mechanics: it parks surplus servers (their
// cores leave service like a drain, keeping their owner) and unparks them
// on scale-out. A joining server's cores are cold — they pay the
// scheduler's migration penalty for their first active window (reduced LS
// performance, no B-mode batch bonus) as their warm-up cost.
// Scenario drains compose: a scenario-drained server is never eligible,
// and the autoscaler sees only the remaining availability, so a mid-day
// failure can trigger a compensating scale-out.
//
// Decisions draw no randomness — they are pure functions of the
// seed-derived demand timelines and deterministic measurements — so
// autoscaled runs stay bit-identical across worker counts.
package fleet

import "fmt"

// AutoscalePolicy selects the built-in autoscaling policy.
type AutoscalePolicy int

// Autoscale policies.
const (
	// AutoscaleOff keeps every server in service: the fleet size is fixed
	// and no core is ever parked.
	AutoscaleOff AutoscalePolicy = iota
	// AutoscaleUtil tracks offered load: it keeps fleet utilisation —
	// demand in cores' worth (offered load normalised by per-core
	// saturation rate) over in-service cores — inside the [0.45, 0.75]
	// band, stepping one server toward the mid-band size when it drifts
	// out. Window 0 sizes the fleet to the first window's demand directly.
	AutoscaleUtil
	// AutoscaleViolation tracks measured QoS: it scales out when the
	// previous window recorded a violating core-window, and scales in
	// only after 8 consecutive windows with no violations and utilisation
	// below 0.45. It starts with every available server up.
	AutoscaleViolation
)

// String names the policy.
func (p AutoscalePolicy) String() string {
	switch p {
	case AutoscaleOff:
		return "off"
	case AutoscaleUtil:
		return "util"
	case AutoscaleViolation:
		return "violation"
	default:
		return fmt.Sprintf("AutoscalePolicy(%d)", int(p))
	}
}

// ParseAutoscalePolicy resolves a policy name (off|util|violation).
func ParseAutoscalePolicy(s string) (AutoscalePolicy, error) {
	switch s {
	case "off", "":
		return AutoscaleOff, nil
	case "util":
		return AutoscaleUtil, nil
	case "violation":
		return AutoscaleViolation, nil
	default:
		return 0, fmt.Errorf("fleet: unknown autoscale policy %q (off|util|violation)", s)
	}
}

// ScaleState is the current window's fleet state handed to an Autoscaler
// alongside the previous window's observation.
type ScaleState struct {
	// AvailableServers is how many servers the scenario leaves eligible
	// this window (scenario-drained servers are never available).
	AvailableServers int
	// UpServers is how many of those are currently in service (not
	// parked by earlier autoscale decisions).
	UpServers int
	// CoresPerServer echoes the fleet shape.
	CoresPerServer int
	// DemandCores is the current window's fleet-wide offered load in
	// cores' worth: each client's offered rate divided by its service's
	// SLO-weighted per-core saturation rate, summed. DemandCores /
	// (UpServers × CoresPerServer) is the fleet utilisation the util
	// policy regulates.
	DemandCores float64
}

// Autoscaler decides the fleet size: the scheduler calls DesiredServers
// once per window, before cores are assigned, with the previous window's
// measured observation (nil at window 0) and the current window's state;
// it returns how many servers should be in service. The built-in policies
// implement it, and AutoscaleConfig.Custom plugs in a caller's own. The
// scheduler clamps the answer to [MinServers, AvailableServers] and
// parks/unparks deterministically (highest-index servers park first,
// lowest-index unpark first).
type Autoscaler interface {
	DesiredServers(w int, obs *WindowObservation, st ScaleState) int
}

// AutoscaleConfig selects the autoscaling layer. The zero value disables
// it.
type AutoscaleConfig struct {
	// Policy selects the built-in policy (default off).
	Policy AutoscalePolicy
	// MinServers is the floor of in-service servers (default 1); the
	// ceiling is Config.Servers, the physical fleet.
	MinServers int
	// Custom overrides the built-in policies with a caller-supplied
	// Autoscaler; Policy must still be non-off so the engine knows
	// autoscaling is active.
	Custom Autoscaler
}

// Built-in policy tunings. The utilisation band [autoTargetLow,
// autoTargetHigh] is what AutoscaleUtil holds and autoTargetLow is
// AutoscaleViolation's scale-in slack threshold; one decision moves at
// most autoStepServers servers and blocks the next for autoCooldown
// windows, damping oscillation around the band edges. AutoscaleViolation
// scales out on autoViolationOut violating core-windows and scales in
// after autoSlackWindows consecutive quiet, low-utilisation windows.
const (
	autoTargetLow    = 0.45
	autoTargetHigh   = 0.75
	autoStepServers  = 1
	autoCooldown     = 4
	autoViolationOut = 1
	autoSlackWindows = 8
)

// defaultAutoMinServers is the in-service floor when MinServers is zero.
const defaultAutoMinServers = 1

// withDefaults fills a zero MinServers.
func (a AutoscaleConfig) withDefaults() AutoscaleConfig {
	if a.MinServers == 0 {
		a.MinServers = defaultAutoMinServers
	}
	return a
}

// Validate rejects unusable configurations against a concrete fleet. With
// autoscaling off, MinServers and Custom must stay unset: nothing would
// read them.
func (a AutoscaleConfig) Validate(servers int) error {
	switch {
	case a.Policy < AutoscaleOff || a.Policy > AutoscaleViolation:
		return fmt.Errorf("fleet: unknown autoscale policy %d", int(a.Policy))
	case a.Policy == AutoscaleOff && a.Custom != nil:
		return fmt.Errorf("fleet: custom autoscaler needs a non-off policy")
	case a.Policy == AutoscaleOff && a.MinServers != 0:
		return fmt.Errorf("fleet: autoscale min %d servers needs a non-off policy", a.MinServers)
	case a.MinServers < 0 || a.MinServers > servers:
		return fmt.Errorf("fleet: autoscale min %d servers outside fleet [0,%d]", a.MinServers, servers)
	}
	return nil
}

// newAutoscaler builds the Autoscaler for a (defaulted) config; nil when
// autoscaling is off.
func newAutoscaler(a AutoscaleConfig) Autoscaler {
	if a.Policy == AutoscaleOff {
		return nil
	}
	if a.Custom != nil {
		return a.Custom
	}
	switch a.Policy {
	case AutoscaleUtil:
		return &utilAuto{}
	case AutoscaleViolation:
		return &violationAuto{}
	}
	return nil
}

// utilAuto implements AutoscaleUtil: hold utilisation inside the band by
// stepping toward the mid-band fleet size whenever it drifts out.
type utilAuto struct {
	cool int
}

// needServers is the fleet size that puts utilisation at the middle of
// the band for the given demand (at least one server for any demand).
func (*utilAuto) needServers(st ScaleState) int {
	target := (autoTargetLow + autoTargetHigh) / 2
	perServer := target * float64(st.CoresPerServer)
	n := int(st.DemandCores/perServer) + 1
	if st.DemandCores == 0 {
		n = 1
	}
	return n
}

func (a *utilAuto) DesiredServers(w int, obs *WindowObservation, st ScaleState) int {
	need := a.needServers(st)
	if w == 0 {
		// Initial sizing: jump straight to the demand-implied size.
		return need
	}
	if a.cool > 0 {
		a.cool--
		return st.UpServers
	}
	capacity := float64(st.UpServers * st.CoresPerServer)
	util := 0.0
	if capacity > 0 {
		util = st.DemandCores / capacity
	}
	switch {
	case util > autoTargetHigh && need > st.UpServers:
		a.cool = autoCooldown
		return st.UpServers + min(autoStepServers, need-st.UpServers)
	case util < autoTargetLow && need < st.UpServers:
		a.cool = autoCooldown
		return st.UpServers - min(autoStepServers, st.UpServers-need)
	}
	return st.UpServers
}

// violationAuto implements AutoscaleViolation: scale out on measured
// QoS-violation core-windows, scale in only on sustained slack.
type violationAuto struct {
	slackRun int
	cool     int
}

func (a *violationAuto) DesiredServers(w int, obs *WindowObservation, st ScaleState) int {
	if obs == nil {
		// No measurement yet: start with everything the scenario allows.
		return st.AvailableServers
	}
	if a.cool > 0 {
		a.cool--
	}
	if obs.Violations >= autoViolationOut {
		a.slackRun = 0
		if a.cool == 0 {
			a.cool = autoCooldown
			return st.UpServers + autoStepServers
		}
		return st.UpServers
	}
	capacity := float64(st.UpServers * st.CoresPerServer)
	if capacity > 0 && st.DemandCores/capacity < autoTargetLow {
		a.slackRun++
	} else {
		a.slackRun = 0
	}
	if a.slackRun >= autoSlackWindows && a.cool == 0 {
		a.slackRun = 0
		a.cool = autoCooldown
		return st.UpServers - autoStepServers
	}
	return st.UpServers
}
