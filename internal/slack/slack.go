// Package slack measures the performance slack of §II: the lowest fraction
// of full single-thread performance at which a latency-sensitive service
// still meets its QoS target at a given load (Fig. 2).
//
// Curve models reduced performance as a plain perf factor f: every
// service time is stretched by 1/f (queueing.Simulator.QoS), and each
// point bisects f for the lowest value that still meets the QoS target. The paper reduces performance by Elfen-style fine-grain time
// interleaving; its sub-millisecond quantum sits orders of magnitude
// below the latency targets, so the quantisation delay it adds is
// negligible and the plain 1/f stretch stands in for it.
//
// Invariant: slack curves are pure functions of (service config, load,
// seed); the bisection over perf factors consumes no shared state, so
// curves for different loads may be computed concurrently.
package slack

import (
	"fmt"

	"stretch/internal/queueing"
)

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
	// One Simulator serves every load point: the seed and request count
	// are fixed, so it draws the requests once for the whole curve.
	sim, err := queueing.NewSimulator(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]Point, 0, len(loads))
	for _, lf := range loads {
		req, err := requiredPerf(sim, cfg, peak*lf, nRequests, resolution, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, Point{LoadFrac: lf, RequiredPerf: req, Slack: 1 - req})
	}
	return out, nil
}

// requiredPerf finds the minimum performance factor meeting the QoS target
// at the given arrival rate on sim, which holds cfg, by bisection to the
// given resolution. It returns 1 if even full performance misses the
// target (no slack), and the floor resolution if the target is met even
// at the lowest searched performance. Every probe of the bisection runs
// the same seed and request count, so sim draws the requests once.
func requiredPerf(sim *queueing.Simulator, cfg queueing.Config, ratePerSec float64, nRequests int, resolution float64, seed uint64) (float64, error) {
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
