package experiments

import (
	"fmt"

	"stretch/internal/colocate"
	"stretch/internal/core"
	"stretch/internal/fleet"
	"stretch/internal/monitor"
	"stretch/internal/stats"
	"stretch/internal/workload"
)

// Fig14 reproduces the §VI-D impact case studies built on the diurnal load
// patterns of Figure 14: a Web Search cluster (B-mode engageable ~11 h/day)
// and a YouTube-like video cluster (~17 h/day). Cluster-level batch
// throughput gains are integrated over 24 hours using the measured B-mode
// 56-136 speedups, with the mode driven both by the coarse hour-grain rule
// and by the closed-loop controller.
func Fig14(c *Context) (Table, error) {
	t := Table{
		ID:      "fig14",
		Title:   "Diurnal case studies: 24-hour cluster throughput gain (Fig. 14 / §VI-D)",
		Header:  []string{"cluster", "LS service", "B-mode hours", "batch gain (engaged)", "24h cluster gain", "controller switches"},
		Metrics: map[string]float64{},
	}
	cases := []struct {
		trace fleet.DiurnalTrace
		ls    string
	}{
		{fleet.WebSearchTrace(), workload.WebSearch},
		{fleet.YouTubeTrace(), workload.MediaStreaming},
	}
	for _, cs := range cases {
		// Measured B-mode batch speedup and LS slowdown of the service.
		lss, bs, err := deltas(c, colocate.SkewConfig(BModeSkew), cs.ls)
		if err != nil {
			return Table{}, err
		}
		for i := range lss {
			lss[i] = -lss[i]
		}
		bGain, lsSlow := stats.Mean(bs), stats.Mean(lss)
		study := fleet.Study{
			Trace:         cs.trace,
			EngageBelow:   0.85,
			BatchSpeedupB: bGain,
			LSSlowdownB:   lsSlow,
		}
		res, err := study.Run()
		if err != nil {
			return Table{}, err
		}

		// Closed-loop replay under the analytic tail proxy.
		svc := workload.Services()[cs.ls]
		observeAt := func(load float64, mode core.Mode) monitor.Observation {
			obs, _ := proxyObservation(svc.QoSTargetMs, lsSlow, load, mode)
			return obs
		}
		ctl, err := monitor.New(monitor.DefaultConfig(svc.QoSTargetMs))
		if err != nil {
			return Table{}, err
		}
		ctlRes, err := study.RunWithController(ctl, 12, observeAt)
		if err != nil {
			return Table{}, err
		}

		t.Rows = append(t.Rows, []string{
			cs.trace.Name, cs.ls,
			fmt.Sprintf("%d", res.EngagedHours),
			pct(bGain), pct(res.ClusterGain),
			fmt.Sprintf("%d", ctl.Switches()),
		})
		t.Metrics["gain_"+cs.trace.Name] = res.ClusterGain
		t.Metrics["hours_"+cs.trace.Name] = float64(res.EngagedHours)
		t.Metrics["ctl_gain_"+cs.trace.Name] = ctlRes.ClusterGain
		t.Metrics["ctl_switches_"+cs.trace.Name] = float64(ctl.Switches())
	}
	t.Notes = append(t.Notes,
		"paper: Web Search cluster ~11 engageable hours -> ~5% 24h gain; YouTube cluster ~17 hours -> ~11% 24h gain")
	return t, nil
}

// proxyObservation is the closed-loop replays' observation model: the
// load over the LS thread's perf in mode (B-mode runs it lsSlow slower),
// clamped just below saturation, drives a tail of targetMs × (service
// tail + a queueing term growing as util/(1-util)). The analytic proxy
// keeps the controller studies independent of queueing-simulation noise.
// It also returns the utilization, for signals built on the same term.
func proxyObservation(targetMs, lsSlow, load float64, mode core.Mode) (monitor.Observation, float64) {
	perf := 1.0
	if mode == core.ModeB {
		perf = 1 - lsSlow
	}
	util := load / perf
	if util >= 0.999 {
		util = 0.999
	}
	return monitor.Observation{TailMs: targetMs * (0.30 + 0.55*util/(1-util)*0.12)}, util
}
