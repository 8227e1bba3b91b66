// PolicyFeedback closes the scheduler's loop on measured tails. The
// paper's core argument (§IV-C) is that Stretch wins by reacting to
// *measured* tail-latency slack; the open-loop policies can only react to
// offered load. Feedback moves a per-client pressure weight that
// integrates the previous window's measurements — violating core-windows
// grow a client's weight (stealing cores from the rest of the fleet),
// while clients whose monitors report tails far below target decay toward
// a floor and release cores. The weighted demand then flows through the
// same desired/hysteresis/rebalance machinery as PolicyProportional
// (whose weights stay 1), so min-core floors and the migration penalty
// apply unchanged.
package fleet

// Feedback tuning. The constants trade reaction speed against migration
// churn; they are deliberately conservative so the weight integrates over
// a few windows rather than slamming the fleet on one bad reading.
const (
	// feedbackGain scales how fast a violating client's weight grows:
	// weight ×= 1 + gain × (violating fraction of its cores). This and
	// feedbackDecay are the defaults behind SchedulerConfig.FeedbackGain
	// and FeedbackDecay, the two knobs the search driver sweeps.
	feedbackGain = 1.5
	// feedbackSlackRich is the mean measured headroom (fraction of the
	// tail target, from the per-core monitors) beyond which a client is
	// considered slack-rich and starts releasing cores.
	feedbackSlackRich = 0.4
	// feedbackDecay shrinks a slack-rich client's weight each window.
	feedbackDecay = 0.92
	// feedbackRelax drifts a neutral (neither violating nor slack-rich)
	// or unobserved client's weight back toward 1 each window.
	feedbackRelax = 0.25
	// feedbackMinWeight / feedbackMaxWeight clamp the weights so one
	// client can neither monopolise the fleet nor be starved forever.
	feedbackMinWeight = 0.4
	feedbackMaxWeight = 4.0
)

// updateWeights folds the previous window's observation (nil at window
// 0) into the pressure weights and reports whether a measured violation
// forces the rebalance through the hysteresis threshold: hysteresis damps
// churn from *demand drift*, but a violation is direct evidence the
// current assignment is inadequate — exactly the signal the threshold is
// a proxy for.
func (e *elastic) updateWeights(obs *WindowObservation) bool {
	if obs == nil {
		return false
	}
	for ci := range e.weight {
		o := obs.Clients[ci]
		switch {
		case o.Cores == 0:
			// No measurement this window: relax toward neutral so a
			// client squeezed to zero cores recovers its proportional
			// share instead of starving forever.
			e.weight[ci] += (1 - e.weight[ci]) * feedbackRelax
		case o.Violations > 0:
			e.weight[ci] *= 1 + e.sched.FeedbackGain*float64(o.Violations)/float64(o.Cores)
		case o.MeanSlack > feedbackSlackRich:
			e.weight[ci] *= e.sched.FeedbackDecay
		default:
			e.weight[ci] += (1 - e.weight[ci]) * feedbackRelax
		}
		if e.weight[ci] < feedbackMinWeight {
			e.weight[ci] = feedbackMinWeight
		}
		if e.weight[ci] > feedbackMaxWeight {
			e.weight[ci] = feedbackMaxWeight
		}
	}
	return obs.Violations > 0
}
