// Package slack measures the performance slack of §II: the lowest fraction
// of full single-thread performance at which a latency-sensitive service
// still meets its QoS target at a given load (Fig. 2).
//
// Performance is modulated the way the paper does it — Elfen-inspired
// fine-grain time interleaving of a non-contentious preemptive co-runner:
// the service runs on the core for a duty-cycle fraction f of every
// sub-millisecond quantum. Besides the 1/f service-time stretch this adds
// a small quantisation delay (a request finishing during an off-phase waits
// for the next on-phase), which is negligible exactly because the quantum
// is orders of magnitude below the latency targets — the property the
// paper relies on.
//
// Invariant: slack curves are pure functions of (service config, load,
// seed); the bisection over duty cycles consumes no shared state, so
// curves for different loads may be computed concurrently.
package slack

import (
	"fmt"

	"stretch/internal/queueing"
)

// Modulator describes duty-cycle performance modulation.
type Modulator struct {
	// QuantumMs is the interleaving quantum (sub-millisecond).
	QuantumMs float64
	// Fraction is the duty cycle in (0, 1]: the fraction of each quantum
	// the latency-sensitive thread owns.
	Fraction float64
}

// EffectivePerf returns the modulated performance factor including the
// expected quantisation penalty expressed as an equivalent slowdown for a
// request of the given mean length. For quanta far below the service time
// this converges to the duty cycle itself.
func (m Modulator) EffectivePerf(meanServiceMs float64) (float64, error) {
	if m.Fraction <= 0 || m.Fraction > 1 {
		return 0, fmt.Errorf("slack: duty cycle %v out of (0,1]", m.Fraction)
	}
	if m.QuantumMs <= 0 {
		return 0, fmt.Errorf("slack: non-positive quantum")
	}
	if meanServiceMs <= 0 {
		return 0, fmt.Errorf("slack: non-positive service time")
	}
	// Expected residual off-phase wait at completion: half an off-phase.
	offMs := m.QuantumMs * (1 - m.Fraction)
	stretched := meanServiceMs/m.Fraction + offMs/2
	return meanServiceMs / stretched, nil
}

// Point is one (load, required performance) sample of the slack curve.
type Point struct {
	// LoadFrac is the load as a fraction of peak sustainable load.
	LoadFrac float64
	// RequiredPerf is the minimum performance fraction meeting QoS.
	RequiredPerf float64
	// Slack is 1 - RequiredPerf.
	Slack float64
}

// Curve computes the slack curve for a service at the given load fractions.
// nRequests sizes each queueing simulation; resolution is the perf-factor
// search granularity.
func Curve(cfg queueing.Config, peak float64, loads []float64, nRequests int, resolution float64, seed uint64) ([]Point, error) {
	if resolution <= 0 || resolution >= 1 {
		return nil, fmt.Errorf("slack: resolution %v out of (0,1)", resolution)
	}
	out := make([]Point, 0, len(loads))
	for _, lf := range loads {
		req, err := RequiredPerf(cfg, peak*lf, nRequests, resolution, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, Point{LoadFrac: lf, RequiredPerf: req, Slack: 1 - req})
	}
	return out, nil
}

// RequiredPerf finds the minimum performance factor meeting the QoS target
// at the given arrival rate, by bisection to the given resolution. It
// returns 1 if even full performance misses the target (no slack), and the
// floor resolution if the target is met even at the lowest searched
// performance.
func RequiredPerf(cfg queueing.Config, ratePerSec float64, nRequests int, resolution float64, seed uint64) (float64, error) {
	// One Simulator serves every probe of the bisection: its buffers are
	// sized once and no state leaks between calls.
	sim, err := queueing.NewSimulator(cfg)
	if err != nil {
		return 0, err
	}
	meets := func(perf float64) (bool, error) {
		qos, err := sim.QoS(ratePerSec, nRequests, perf, seed)
		return qos <= cfg.QoSTargetMs, err
	}
	full, err := meets(1.0)
	if err != nil {
		return 0, err
	}
	if !full {
		return 1, nil
	}
	lo, hi := resolution, 1.0 // lo may fail QoS, hi always meets it
	for hi-lo > resolution {
		mid := (lo + hi) / 2
		ok, err := meets(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	// Accept the floor if it, too, meets QoS.
	ok, err := meets(resolution)
	if err != nil {
		return 0, err
	}
	if ok {
		return resolution, nil
	}
	return hi, nil
}

// Tolerates reports whether a service at the given load can absorb the
// given colocation-induced slowdown without violating QoS: the check the
// Stretch software monitor performs before engaging B-mode (§IV).
func Tolerates(cfg queueing.Config, peak, loadFrac, slowdown float64, nRequests int, seed uint64) (bool, error) {
	if slowdown < 0 || slowdown >= 1 {
		return false, fmt.Errorf("slack: slowdown %v out of [0,1)", slowdown)
	}
	sim, err := queueing.NewSimulator(cfg)
	if err != nil {
		return false, err
	}
	qos, err := sim.QoS(peak*loadFrac, nRequests, 1-slowdown, seed)
	if err != nil {
		return false, err
	}
	return qos <= cfg.QoSTargetMs, nil
}
