package experiments

import (
	"fmt"

	"stretch/internal/colocate"
	"stretch/internal/core"
	"stretch/internal/fleet"
	"stretch/internal/monitor"
	"stretch/internal/sampling"
	"stretch/internal/stats"
	"stretch/internal/trace"
	"stretch/internal/workload"
)

// AblationLSQCoupling isolates the design choice of partitioning the LSQ in
// proportion to the ROB (§IV footnote): B-mode 56-136 with the coupled LSQ
// versus the same ROB skew with the LSQ left at the equal 32-32 split.
func AblationLSQCoupling(c *Context) (Table, error) {
	base, err := baselineGrid(c)
	if err != nil {
		return Table{}, err
	}
	coupled, err := skewGrid(c, BModeSkew)
	if err != nil {
		return Table{}, err
	}
	decoupledCfg := colocate.SkewConfig(BModeSkew)
	decoupledCfg.LSQLimit = [2]int{decoupledCfg.LSQEntries / 2, decoupledCfg.LSQEntries / 2}
	decoupled, err := c.Grid("skew-lsq-equal", func() (map[string]map[string]colocate.Pair, error) {
		return colocate.Grid(workload.ServiceNames(), c.BatchNames(), decoupledCfg, c.Spec())
	})
	if err != nil {
		return Table{}, err
	}

	t := Table{
		ID:      "ablation-lsq",
		Title:   "Ablation: LSQ partitioned with the ROB vs kept equal (B-mode 56-136)",
		Header:  []string{"LSQ policy", "batch gain (mean)", "batch gain (max)"},
		Metrics: map[string]float64{},
	}
	gains := func(grid map[string]map[string]colocate.Pair) (mean, max float64) {
		var xs []float64
		for _, ls := range workload.ServiceNames() {
			for _, b := range c.BatchNames() {
				xs = append(xs, colocate.Speedup(grid[ls][b].BatchAgg.IPC, base[ls][b].BatchAgg.IPC))
			}
		}
		return stats.Mean(xs), stats.Max(xs)
	}
	cm, cx := gains(coupled)
	dm, dx := gains(decoupled)
	t.Rows = append(t.Rows,
		[]string{"proportional (Stretch)", pct(cm), pct(cx)},
		[]string{"equal 32-32", pct(dm), pct(dx)})
	t.Metrics["coupled_mean"] = cm
	t.Metrics["decoupled_mean"] = dm
	t.Notes = append(t.Notes,
		"an equal LSQ caps the batch thread's in-flight memory ops and forfeits part of the B-mode gain, which is why Stretch manages the LSQ in proportion to the ROB")
	return t, nil
}

// AblationMSHR sweeps the per-thread MSHR budget: the MLP ceiling that
// bounds how much a large window can help a memory-bound thread.
func AblationMSHR(c *Context) (Table, error) {
	budgets := []int{2, 5, 10, 16}
	names := []string{workload.Zeusmp, "libquantum", workload.WebSearch}
	t := Table{
		ID:    "ablation-mshr",
		Title: "Ablation: per-thread MSHR budget vs solo IPC (full 192-entry window)",
		Header: append([]string{"workload"}, func() []string {
			var h []string
			for _, b := range budgets {
				h = append(h, fmt.Sprintf("%d", b))
			}
			return h
		}()...),
		Metrics: map[string]float64{},
	}
	for _, n := range names {
		p, err := workload.Lookup(n)
		if err != nil {
			return Table{}, err
		}
		row := []string{n}
		for _, b := range budgets {
			cfg := core.Solo()
			cfg.MSHRPerThread = b
			a, err := sampling.Solo(cfg, p, c.Spec())
			if err != nil {
				return Table{}, err
			}
			row = append(row, f3(a.IPC))
			t.Metrics[fmt.Sprintf("%s_%d", n, b)] = a.IPC
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"high-MLP batch workloads scale with MSHRs while the chase-bound service does not — the asymmetry Stretch exploits exists beneath the ROB as well")
	return t, nil
}

// AblationPrefetcher toggles the stride prefetcher for the streaming batch
// tier and a latency-sensitive service.
func AblationPrefetcher(c *Context) (Table, error) {
	names := []string{"libquantum", "lbm", workload.Zeusmp, workload.WebSearch}
	t := Table{
		ID:      "ablation-prefetch",
		Title:   "Ablation: stride prefetcher on/off (solo full core)",
		Header:  []string{"workload", "IPC off", "IPC on", "speedup"},
		Metrics: map[string]float64{},
	}
	for _, n := range names {
		p, err := workload.Lookup(n)
		if err != nil {
			return Table{}, err
		}
		off := core.Solo()
		off.Prefetch = false
		on := core.Solo()
		aOff, err := sampling.Solo(off, p, c.Spec())
		if err != nil {
			return Table{}, err
		}
		aOn, err := sampling.Solo(on, p, c.Spec())
		if err != nil {
			return Table{}, err
		}
		sp := colocate.Speedup(aOn.IPC, aOff.IPC)
		t.Rows = append(t.Rows, []string{n, f3(aOff.IPC), f3(aOn.IPC), pct(sp)})
		t.Metrics["speedup_"+n] = sp
	}
	return t, nil
}

// AblationControllerSignal compares the tail-latency and queue-length
// controller signals over a synthetic diurnal day.
func AblationControllerSignal(c *Context) (Table, error) {
	study := fleet.Study{Trace: fleet.WebSearchTrace(), EngageBelow: 0.85, BatchSpeedupB: 0.13, LSSlowdownB: 0.07}
	t := Table{
		ID:      "ablation-signal",
		Title:   "Ablation: controller signal (tail latency vs queue length)",
		Header:  []string{"signal", "24h gain", "B-mode hours", "mode switches"},
		Metrics: map[string]float64{},
	}
	for _, sig := range []monitor.Signal{monitor.SignalTailLatency, monitor.SignalQueueLength} {
		cfg := monitor.DefaultConfig(100)
		cfg.Signal = sig
		ctl, err := monitor.New(cfg)
		if err != nil {
			return Table{}, err
		}
		res, err := study.RunWithController(ctl, 12, func(load float64, mode core.Mode) monitor.Observation {
			// Both signals grow with the same queueing term util/(1-util):
			// the tail proxy of fig14, and as queue depth the M/M/1 mean
			// number of waiting requests, util²/(1-util), truncated to
			// whole requests.
			obs, util := proxyObservation(100, study.LSSlowdownB, load, mode)
			obs.QueueLen = int(util * util / (1 - util))
			return obs
		})
		if err != nil {
			return Table{}, err
		}
		name := "tail-latency"
		if sig == monitor.SignalQueueLength {
			name = "queue-length"
		}
		t.Rows = append(t.Rows, []string{name, pct(res.ClusterGain),
			fmt.Sprintf("%d", res.EngagedHours), fmt.Sprintf("%d", ctl.Switches())})
		t.Metrics["gain_"+name] = res.ClusterGain
		t.Metrics["hours_"+name] = float64(res.EngagedHours)
		t.Metrics["switches_"+name] = float64(ctl.Switches())
	}
	return t, nil
}

// AblationFlushCost measures the cost of mode-change pipeline flushes by
// toggling the partition at varying periods during a colocated run —
// quantifying §IV-C's claim that infrequent, long-duration modes make the
// flush overhead negligible.
func AblationFlushCost(c *Context) (Table, error) {
	lp, err := workload.Lookup(workload.WebSearch)
	if err != nil {
		return Table{}, err
	}
	bp, err := workload.Lookup(workload.Zeusmp)
	if err != nil {
		return Table{}, err
	}
	periods := []int64{0, 100000, 10000, 1000}
	t := Table{
		ID:      "ablation-flush",
		Title:   "Ablation: mode-switch period vs throughput (web-search + zeusmp, B-mode)",
		Header:  []string{"switch period (cycles)", "combined IPC", "loss vs static"},
		Metrics: map[string]float64{},
	}
	run := func(period int64) (float64, error) {
		g0, err := trace.NewGenerator(lp, 101)
		if err != nil {
			return 0, err
		}
		g1, err := trace.NewGenerator(bp, 102)
		if err != nil {
			return 0, err
		}
		cc, err := core.New(colocate.SkewConfig(BModeSkew), g0, g1)
		if err != nil {
			return 0, err
		}
		total := int64(400000)
		if c.Scale == Quick {
			total = 150000
		}
		if period == 0 {
			cc.RunCycles(total)
		} else {
			// Re-program the same B-mode skew every period: the limit
			// values do not change, so any throughput difference from
			// the static run is pure mode-switch cost (squash, flush,
			// refill) — isolating the overhead from the mode mix.
			for done := int64(0); done < total; done += period {
				n := period
				if total-done < n {
					n = total - done
				}
				cc.RunCycles(n)
				if err := cc.SetPartition(BModeSkew); err != nil {
					return 0, err
				}
			}
		}
		return float64(cc.Committed(0)+cc.Committed(1)) / float64(cc.Cycle()), nil
	}
	base := 0.0
	for i, p := range periods {
		ipc, err := run(p)
		if err != nil {
			return Table{}, err
		}
		if i == 0 {
			base = ipc
		}
		label := "static (no switches)"
		if p > 0 {
			label = fmt.Sprintf("%d", p)
		}
		loss := 0.0
		if base > 0 {
			loss = 1 - ipc/base
		}
		t.Rows = append(t.Rows, []string{label, f3(ipc), pct(loss)})
		t.Metrics[fmt.Sprintf("loss_%d", p)] = loss
	}
	t.Notes = append(t.Notes,
		"diurnal-scale mode durations (minutes-hours ~ billions of cycles) make drain+flush costs invisible; only pathological sub-10K-cycle flapping shows measurable loss")
	return t, nil
}
