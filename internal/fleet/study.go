// The §VI-D impact case studies (Fig. 14), folded into the fleet package
// as a 1-core, hour-grain model of one cluster's day: a Web Search
// cluster and a YouTube-like video cluster with diurnal load, where
// Stretch B-mode is engaged during the hours the service runs below the
// engage threshold, and batch throughput is integrated over 24 hours. The
// diurnal day profiles live in internal/loadgen. The studies run on their
// own single-core loops, not on the fleet engine.
package fleet

import (
	"fmt"

	"stretch/internal/core"
	"stretch/internal/loadgen"
	"stretch/internal/monitor"
)

// DiurnalTrace is a 24-hour load profile in fractions of peak load.
type DiurnalTrace struct {
	Name string
	// HourLoad[h] is the load during hour h as a fraction of peak.
	HourLoad [24]float64
}

// WebSearchTrace is the query-rate pattern of Fig. 14(a) (after Meisner et
// al.): a daytime plateau near peak with a deep overnight trough; the
// service sits below 85% of max for roughly 11 hours a day.
func WebSearchTrace() DiurnalTrace {
	return DiurnalTrace{Name: "web-search-cluster", HourLoad: loadgen.WebSearchDay()}
}

// YouTubeTrace is the edge-traffic pattern of Fig. 14(b) (after Gill et
// al.): requests concentrate between 10:00 and 19:00, peaking at 14:00;
// the other ~17 hours stay below 85% of peak.
func YouTubeTrace() DiurnalTrace {
	return DiurnalTrace{Name: "youtube-cluster", HourLoad: loadgen.VideoDay()}
}

// Study parameterises one §VI-D case study.
type Study struct {
	Trace DiurnalTrace
	// EngageBelow is the load threshold under which B-mode is safe (the
	// paper uses 85% of max).
	EngageBelow float64
	// BatchSpeedupB is the measured batch speedup of the B-mode skew in
	// use (e.g. 56-136) relative to equal partitioning.
	BatchSpeedupB float64
	// LSSlowdownB is the measured LS slowdown of that skew relative to
	// equal partitioning (used to sanity-check safety against slack).
	LSSlowdownB float64
}

// HourResult records one hour of the study.
type HourResult struct {
	Hour     int
	Load     float64
	Mode     core.Mode
	BatchRel float64 // batch throughput relative to equal partitioning
}

// StudyResult is the 24-hour integration.
type StudyResult struct {
	Hours []HourResult
	// EngagedHours is how many hours B-mode was active.
	EngagedHours int
	// ClusterGain is the 24-hour batch-throughput improvement over the
	// baseline SMT deployment with equal partitioning.
	ClusterGain float64
}

// Run integrates the study over 24 hours. Hour-grain mode selection mirrors
// the coarse exploitation the paper evaluates ("both cases are doing a very
// coarse exploitation of the capabilities of Stretch").
// B-mode is engaged in every hour whose load sits below EngageBelow,
// crediting the batch thread 1+BatchSpeedupB relative to equal
// partitioning.
func (s Study) Run() (StudyResult, error) {
	if s.EngageBelow <= 0 || s.EngageBelow > 1 {
		return StudyResult{}, fmt.Errorf("fleet: engage threshold %v out of (0,1]", s.EngageBelow)
	}
	if s.BatchSpeedupB < 0 {
		return StudyResult{}, fmt.Errorf("fleet: negative batch speedup")
	}
	var res StudyResult
	var sum float64
	for h, load := range s.Trace.HourLoad {
		hr := HourResult{Hour: h, Load: load, Mode: core.ModeBaseline, BatchRel: 1}
		if load < s.EngageBelow {
			hr.Mode, hr.BatchRel = core.ModeB, 1+s.BatchSpeedupB
			res.EngagedHours++
		}
		sum += hr.BatchRel
		res.Hours = append(res.Hours, hr)
	}
	res.ClusterGain = sum/24 - 1
	return res, nil
}

// RunWithController replays the diurnal day through the §IV-C controller at
// the given monitoring granularity (windows per hour), feeding it the tail
// latency that the queueing model predicts for each window's load and the
// currently engaged mode. tailAt maps (loadFrac, mode) to the window's tail
// latency in ms. Each hour records the controller's mode at the hour's end
// and credits the batch thread for the fraction of its windows spent in
// B-mode; an hour counts as engaged when that fraction passes one half.
// The controller's switch count shows that hysteresis keeps flips
// infrequent even at fine granularity.
func (s Study) RunWithController(ctl *monitor.Controller, windowsPerHour int,
	tailAt func(load float64, mode core.Mode) float64) (StudyResult, error) {
	if windowsPerHour <= 0 {
		return StudyResult{}, fmt.Errorf("fleet: need at least one window per hour")
	}
	if ctl == nil || tailAt == nil {
		return StudyResult{}, fmt.Errorf("fleet: controlled study needs a controller and a tail model")
	}
	var res StudyResult
	var sum float64
	for h, load := range s.Trace.HourLoad {
		engaged := 0
		for i := 0; i < windowsPerHour; i++ {
			ctl.Observe(monitor.Observation{TailMs: tailAt(load, ctl.Mode())})
			if ctl.Mode() == core.ModeB {
				engaged++
			}
		}
		frac := float64(engaged) / float64(windowsPerHour)
		hr := HourResult{Hour: h, Load: load, Mode: ctl.Mode(), BatchRel: 1 + s.BatchSpeedupB*frac}
		if frac > 0.5 {
			res.EngagedHours++
		}
		sum += hr.BatchRel
		res.Hours = append(res.Hours, hr)
	}
	res.ClusterGain = sum/24 - 1
	return res, nil
}
