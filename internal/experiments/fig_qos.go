package experiments

import (
	"fmt"

	"stretch/internal/queueing"
	"stretch/internal/slack"
	"stretch/internal/workload"
)

// Fig1 reproduces Figure 1: Web Search average/95th/99th-percentile latency
// as a function of load. The paper's headline shape: the average climbs
// slowly (+43% low→high) while the 99th percentile grows by over 2.5×.
func Fig1(c *Context) (Table, error) {
	svc := workload.Services()[workload.WebSearch]
	qc := queueing.ForService(svc)
	n := c.QueueRequests()

	peak, err := queueing.PeakLoad(qc, n, 7)
	if err != nil {
		return Table{}, err
	}
	loads := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	rs, err := queueing.LoadCurve(qc, peak, loads, n, 7)
	if err != nil {
		return Table{}, err
	}

	t := Table{
		ID:     "fig1",
		Title:  "Web Search latency vs load (Fig. 1); QoS target 100ms @ p99",
		Header: []string{"load", "avg (ms)", "p95 (ms)", "p99 (ms)", "meets QoS"},
	}
	for i, r := range rs {
		t.Rows = append(t.Rows, []string{
			pct(loads[i]), fmt.Sprintf("%.1f", r.MeanMs),
			fmt.Sprintf("%.1f", r.P95Ms), fmt.Sprintf("%.1f", r.P99Ms),
			fmt.Sprintf("%v", r.MeetsQoS),
		})
	}
	lo, hi := rs[0], rs[len(rs)-1]
	t.Metrics = map[string]float64{
		"peak_rps":   peak,
		"avg_growth": hi.MeanMs/lo.MeanMs - 1,
		"p99_growth": hi.P99Ms / lo.P99Ms,
		"p99_low":    lo.P99Ms,
		"p99_high":   hi.P99Ms,
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("avg grows %.0f%%, p99 grows %.1fx from lowest to highest load (paper: 43%% and >2.5x)",
			100*t.Metrics["avg_growth"], t.Metrics["p99_growth"]))
	return t, nil
}

// Fig2 reproduces Figure 2: the fraction of full single-thread performance
// each service needs to keep meeting QoS, versus load. Slack is the
// headroom below 100%.
func Fig2(c *Context) (Table, error) {
	n := c.QueueRequests() / 2 // each point runs a bisection of simulations
	resolution := 0.05
	loads := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

	t := Table{
		ID:    "fig2",
		Title: "Required performance to meet QoS vs load (Fig. 2)",
		Header: append([]string{"service"}, func() []string {
			h := []string{}
			for _, l := range loads {
				h = append(h, pct(l))
			}
			return h
		}()...),
		Metrics: map[string]float64{},
	}
	svcs := workload.Services()
	for _, name := range workload.ServiceNames() {
		svc := svcs[name]
		qc := queueing.ForService(svc)
		peak, err := queueing.PeakLoad(qc, n, 11)
		if err != nil {
			return Table{}, err
		}
		pts, err := slack.Curve(qc, peak, loads, n, resolution, 11)
		if err != nil {
			return Table{}, err
		}
		row := []string{name}
		for _, p := range pts {
			row = append(row, pct(p.RequiredPerf))
		}
		t.Rows = append(t.Rows, row)
		t.Metrics["slack20_"+name] = pts[1].Slack
		t.Metrics["slack50_"+name] = pts[4].Slack
		t.Metrics["slack80_"+name] = pts[7].Slack
	}
	t.Notes = append(t.Notes,
		"paper: at 20% load 55-90% of performance can be sacrificed; at 50% load 30-70%; at 80% load at most ~20%")
	return t, nil
}
