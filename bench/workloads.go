package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"stretch/internal/fleet"
	"stretch/internal/loadgen"
	"stretch/internal/tracefile"
	"stretch/internal/workload"
)

// The uniform B-mode deltas and request budget of the stretchsim CLI
// defaults, so every workload runs the configuration users run.
const (
	bSpeedup   = 0.13
	lsSlowdown = 0.07
	windowReq  = 400
)

// weekTraceFile is the committed week trace. The week recipe at seed 1 and
// the 4×4 golden scale must reproduce it byte for byte, which proves that
// week-churn and plan-week use the CLI's synth recipe, and that plan-week
// plans on the committed trace itself.
const weekTraceFile = "cmd/stretchsim/testdata/week_mixed.trace.csv"

// benchWorkload is one named set of inputs. setup builds the inputs from
// the seed alone; toy shrinks them for the unit tests.
type benchWorkload struct {
	name, why string
	setup     func(seed uint64, toy bool, rec *recorder, parent int) (*job, error)
}

// workloads is the registry, in run order. The why strings are copied
// into BENCHMARK.json; TestRegistryMatchesBenchmarkJSON keeps them equal.
var workloads = []benchWorkload{
	{
		name: "day-discrete",
		why:  "stretchsim -fleet mixed day, 512 cores under feedback on the discrete engine: the queueing simulator does almost all the work, the analytic and cohort layers none",
		setup: func(seed uint64, toy bool, rec *recorder, parent int) (*job, error) {
			servers, cores, hours, wph := 32, 16, 24, 4
			if toy {
				servers, cores, hours, wph = 4, 4, 6, 2
			}
			windows := hours * wph
			clients, err := mixedClients(servers*cores, windows, wph, rec, parent)
			if err != nil {
				return nil, err
			}
			cfg := fleetConfig(servers, cores, traffic(clients, windows, wph), seed)
			cfg.Scheduler = fleet.SchedulerConfig{Policy: fleet.PolicyFeedback}
			return &job{cfg: cfg, gen: cfg.Traffic}, nil
		},
	},
	{
		name: "calm-auto-16k",
		why:  "16k-core calm web-search day on the auto engine: cohort walk and solve cache cover almost every core-window, wall time is the window-0 cold-start residue, memory the per-core arrays",
		setup: func(seed uint64, toy bool, rec *recorder, parent int) (*job, error) {
			servers, cores, hours, wph := 1000, 16, 24, 4
			if toy {
				servers, cores, hours, wph = 8, 16, 12, 2
			}
			windows := hours * wph
			pk, err := peakRPS(workload.WebSearch, rec, parent)
			if err != nil {
				return nil, err
			}
			clients := []loadgen.Client{{
				Name: "search", Service: workload.WebSearch, Batch: workload.Zeusmp, Fraction: 1,
				Spec: loadgen.Spec{Shape: loadgen.Diurnal{
					HourLoad: loadgen.WebSearchDay(), PeakRPS: calmLoad * pk * float64(servers*cores),
					Smooth: true, WindowsPerDay: 24 * wph,
				}, Poisson: true},
			}}
			cfg := fleetConfig(servers, cores, traffic(clients, windows, wph), seed)
			cfg.Engine = fleet.EngineAuto
			return &job{cfg: cfg, gen: cfg.Traffic}, nil
		},
	},
	{
		name: "week-churn",
		why:  "7-day gamma:1.5 mixed trace, 256 cores under feedback on auto: classes fork and merge under heavy migration while the scheduler rebalances every window",
		setup: func(seed uint64, toy bool, rec *recorder, parent int) (*job, error) {
			servers, cores, hours := 16, 16, 168
			if toy {
				servers, cores, hours = 4, 4, 24
			}
			// The week is synthesised at the anchor seed and the seed drives
			// only the simulation: each seed's own week has another share of
			// discrete core-windows (59-69% at seeds 1, 2 and 8), which would
			// move run time with the seed.
			j, err := weekJob(servers, cores, hours, anchorSeed, seed, rec, parent)
			if err != nil {
				return nil, err
			}
			j.cfg.Scheduler = fleet.SchedulerConfig{Policy: fleet.PolicyFeedback}
			j.cfg.Engine = fleet.EngineAuto
			return j, nil
		},
	},
	{
		name: "plan-week",
		why:  "stretchsim plan on the committed week trace at 4 cores per server: many short runs, so per-run fixed costs and the bisection dominate",
		setup: func(seed uint64, toy bool, rec *recorder, parent int) (*job, error) {
			hours, maxServers, budget := 168, 16, 150
			if toy {
				hours, maxServers, budget = 24, 16, 40
			}
			// The committed trace's realisation at every seed: the seed
			// drives only the simulation, so the answer and the probes it
			// takes barely move between seeds, as stretchsim plan intends.
			j, err := weekJob(4, 4, hours, anchorSeed, seed, rec, parent)
			if err != nil {
				return nil, err
			}
			j.cfg.Servers, j.cfg.CoresPerServer = maxServers, 4
			j.cfg.Scheduler = fleet.SchedulerConfig{Policy: fleet.PolicyFeedback}
			j.plan = &fleet.CapacitySpec{Config: j.cfg, MinServers: 1, MaxViolationWindows: budget}
			return j, nil
		},
	},
}

// calmLoad scales the web-search day so that its peak stays inside the
// auto engine's utilisation guard band: every core settles into B-mode
// after the cold start and stays there, which is what makes the day calm.
const calmLoad = 0.6

func lookupWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}

// job is one workload's generated inputs: a fleet run, or a capacity
// search whose template is cfg.
type job struct {
	cfg  fleet.Config
	plan *fleet.CapacitySpec
	// gen is the generative traffic whose timelines the workload
	// materialises: inside fleet.Run for spec-driven days, inside the
	// synthesiser for trace-driven ones.
	gen loadgen.Traffic
	// cells counts the parsed trace's rate cells (0 without a trace).
	cells int
}

func traffic(clients []loadgen.Client, windows, wph int) loadgen.Traffic {
	return loadgen.Traffic{Clients: clients, Windows: windows, WindowSec: 3600 / float64(wph)}
}

func fleetConfig(servers, cores int, t loadgen.Traffic, seed uint64) fleet.Config {
	return fleet.Config{
		Servers: servers, CoresPerServer: cores, Traffic: t,
		BatchSpeedupB: bSpeedup, LSSlowdownB: lsSlowdown,
		WindowRequests: windowReq, Seed: seed,
	}
}

// anchorSeed is the seed every workload's rate anchors are computed at.
// The peak per-core rate moves by up to 15% between seeds, which would
// move the whole day's operating point; anchoring it makes the seed vary
// only the traffic realisation and the simulation's streams. At seed 1
// every workload is exactly the CLI's configuration.
const anchorSeed = 1

// peakRPS is fleet.PeakRPSPerCore with the CLI's request budget at the
// anchor seed, timed as a queueing span (the bisection is the costly part
// of set-up).
func peakRPS(svc string, rec *recorder, parent int) (float64, error) {
	id := rec.begin("queueing.PeakLoad", parent)
	defer rec.end(id)
	return fleet.PeakRPSPerCore(svc, 4000, anchorSeed)
}

// mixedClients is the stretchsim "mixed" spec: strict-SLO search, relaxed
// video and a bursty ramping kvstore, anchored at each service's peak
// per-core rate for a fleet of nCores.
func mixedClients(nCores, windows, wph int, rec *recorder, parent int) ([]loadgen.Client, error) {
	peaks := map[string]float64{}
	for _, svc := range []string{workload.WebSearch, workload.MediaStreaming, workload.DataServing} {
		pk, err := peakRPS(svc, rec, parent)
		if err != nil {
			return nil, err
		}
		peaks[svc] = pk
	}
	diurnal := func(svc string, day [24]float64, coreShare float64) loadgen.Spec {
		return loadgen.Spec{Shape: loadgen.Diurnal{
			HourLoad: day, PeakRPS: peaks[svc] * coreShare, Smooth: true, WindowsPerDay: 24 * wph,
		}, Poisson: true}
	}
	burstLen := wph / 2
	if burstLen < 1 {
		burstLen = 1
	}
	burstEvery := windows / 3
	if burstEvery <= burstLen {
		burstEvery = 0
	}
	dsCores := float64(nCores) / 5
	return []loadgen.Client{
		{Name: "search", Service: workload.WebSearch, Batch: workload.Zeusmp, Fraction: 0.5,
			SLO: loadgen.SLOStrict, Spec: diurnal(workload.WebSearch, loadgen.WebSearchDay(), float64(nCores)/2)},
		{Name: "video", Service: workload.MediaStreaming, Batch: "libquantum", Fraction: 0.3,
			SLO: loadgen.SLORelaxed, Spec: diurnal(workload.MediaStreaming, loadgen.VideoDay(), float64(nCores)*3/10)},
		{Name: "kvstore", Service: workload.DataServing, Batch: "mcf", Fraction: 0.2,
			Spec: loadgen.Spec{Shape: loadgen.Burst{
				Base: loadgen.Ramp{
					StartRPS:  0.3 * peaks[workload.DataServing] * dsCores,
					TargetRPS: 0.7 * peaks[workload.DataServing] * dsCores,
				},
				Start: windows / 3, Length: burstLen, Every: burstEvery,
				Magnitude: 1.8,
			}, Poisson: true}},
	}, nil
}

// weekTrace is the committed week trace's recipe (stretchsim synth -spec
// mixed -windows-per-hour 1 -arrival gamma:1.5) for a fleet of
// servers × cores: the mixed clients with gamma-mixed Poisson arrivals of
// CV 1.5, one window per hour. It returns the generative traffic and its
// CSV encoding.
func weekTrace(servers, cores, hours int, seed uint64, rec *recorder, parent int) (loadgen.Traffic, []byte, error) {
	clients, err := mixedClients(servers*cores, hours, 1, rec, parent)
	if err != nil {
		return loadgen.Traffic{}, nil, err
	}
	for i := range clients {
		clients[i].Spec.Poisson = false
		clients[i].Spec.Process = loadgen.ArrivalGamma
		clients[i].Spec.CV = 1.5
	}
	gen := traffic(clients, hours, 1)
	id := rec.begin("tracefile.Synth", parent)
	t, err := tracefile.Synth(tracefile.SynthSpec{Traffic: gen, Seed: seed})
	rec.end(id)
	if err != nil {
		return loadgen.Traffic{}, nil, err
	}
	var buf bytes.Buffer
	id = rec.begin("tracefile.WriteCSV", parent)
	err = t.WriteCSV(&buf)
	rec.end(id)
	return gen, buf.Bytes(), err
}

// weekJob synthesises the week trace at traceSeed, encodes it and parses
// it back: the fleet, seeded with seed, sees only the parsed trace, as a
// stretchsim -trace replay does.
func weekJob(servers, cores, hours int, traceSeed, seed uint64, rec *recorder, parent int) (*job, error) {
	gen, csv, err := weekTrace(servers, cores, hours, traceSeed, rec, parent)
	if err != nil {
		return nil, err
	}
	id := rec.begin("tracefile.Parse", parent)
	t, err := tracefile.Parse(bytes.NewReader(csv))
	rec.end(id)
	if err != nil {
		return nil, err
	}
	tr, err := t.Traffic()
	if err != nil {
		return nil, err
	}
	cfg := fleetConfig(servers, cores, tr, seed)
	cfg.Scenario = t.Events
	return &job{cfg: cfg, gen: gen, cells: t.Windows * len(t.Clients)}, nil
}

// checkWeekTrace compares the week recipe at seed 1 and the golden 4×4
// scale with the committed trace; paths are relative to the repository
// root.
func checkWeekTrace() error {
	_, got, err := weekTrace(4, 4, 168, 1, nil, 0)
	if err != nil {
		return err
	}
	want, err := os.ReadFile(weekTraceFile)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("week recipe at seed 1 differs from %s", weekTraceFile)
	}
	return nil
}

// outcome is what one run of a job produced, reduced to what the
// benchmark reports and checks.
type outcome struct {
	res  *fleet.Result
	plan *fleet.CapacityPlan
	// serving counts the serving core-windows simulated, summed over the
	// probes of a capacity search.
	serving int
	// viol, gainPct and p99 are the simulated end-to-end metrics: of the
	// run, or of the planned fleet's probe.
	viol, gainPct, p99 float64
}

// call names the program entry point run calls, for its span.
func (j *job) call() string {
	if j.plan != nil {
		return "fleet.PlanCapacity"
	}
	return "fleet.Run"
}

// run executes the job once on the given worker count.
func (j *job) run(workers int) (outcome, error) {
	if j.plan != nil {
		spec := *j.plan
		spec.Config.Workers = workers
		plan, err := fleet.PlanCapacity(spec)
		if err != nil {
			return outcome{}, err
		}
		return planOutcome(plan, j.cfg.Traffic)
	}
	cfg := j.cfg
	cfg.Workers = workers
	res, err := fleet.Run(cfg)
	if err != nil {
		return outcome{}, err
	}
	return fleetOutcome(res)
}

func fleetOutcome(res fleet.Result) (outcome, error) {
	serving := servingCW(res)
	if serving == 0 {
		return outcome{}, fmt.Errorf("run served no core-windows")
	}
	return outcome{
		res: &res, serving: serving,
		viol:    float64(res.ViolationWindows) / float64(serving),
		gainPct: 100 * res.BatchGain,
		p99:     res.FleetP99Ms,
	}, nil
}

func planOutcome(plan fleet.CapacityPlan, t loadgen.Traffic) (outcome, error) {
	if !plan.Feasible {
		return outcome{}, fmt.Errorf("capacity search infeasible at %d servers", plan.MaxServers)
	}
	o := outcome{plan: &plan}
	for _, pt := range plan.Probes {
		o.serving += pt.Cores * t.Windows
		if pt.Servers == plan.Servers {
			o.viol = float64(pt.ViolationWindows) / float64(pt.Cores*t.Windows)
			o.gainPct = 100 * pt.BatchCoreHoursGained / (float64(pt.Cores) * t.Hours())
			o.p99 = pt.FleetP99Ms
		}
	}
	return o, nil
}

func servingCW(res fleet.Result) int {
	return res.Cores*res.Windows - res.DrainedCoreWindows - res.ParkedCoreWindows - res.IdleCoreWindows
}

// digest is a sha256 over the JSON encoding of the run's Result or
// CapacityPlan: struct fields in declaration order and floats in shortest
// round-trip form, so equal digests mean bit-identical values.
func (o outcome) digest() (string, error) {
	var v any = o.res
	if o.plan != nil {
		v = o.plan
	}
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// checkConservation: every core-window of the horizon is serving,
// drained, parked or idle, the per-window records sum to the run's
// counters, and the clients' core-windows sum to the serving total.
func checkConservation(res fleet.Result) error {
	var serving, drained, parked, idle int
	for _, o := range res.WindowTrace {
		if o.ServingCores+o.DrainedCores+o.ParkedCores+o.IdleCores != res.Cores {
			return fmt.Errorf("window %d partitions %d of %d cores", o.Window,
				o.ServingCores+o.DrainedCores+o.ParkedCores+o.IdleCores, res.Cores)
		}
		serving += o.ServingCores
		drained += o.DrainedCores
		parked += o.ParkedCores
		idle += o.IdleCores
	}
	if len(res.WindowTrace) != res.Windows || drained != res.DrainedCoreWindows ||
		parked != res.ParkedCoreWindows || idle != res.IdleCoreWindows {
		return fmt.Errorf("window trace disagrees with the run's schedule counters")
	}
	clientCW := 0
	for _, cm := range res.Clients {
		clientCW += cm.CoreWindows
	}
	if serving != servingCW(res) || clientCW != serving {
		return fmt.Errorf("core-windows not conserved: %d serving, clients hold %d", serving, clientCW)
	}
	return nil
}

// checkPlan: every probe's verdict matches the budget, the verdicts are
// monotone in fleet size (every probe below the answer misses, every probe
// at or above it meets), and the answer is the smallest size that meets
// the budget (the size below it was probed, or it is the floor).
// Violation counts themselves need not be monotone: at seed 1 the
// committed week trace has 129 violating core-windows at 11 servers and
// 131 at 12.
func checkPlan(plan fleet.CapacityPlan) error {
	found, below := false, plan.Servers == plan.MinServers
	for _, pt := range plan.Probes {
		if pt.Met != (pt.ViolationWindows <= plan.Budget) {
			return fmt.Errorf("probe %d servers: met=%v with %d violations, budget %d",
				pt.Servers, pt.Met, pt.ViolationWindows, plan.Budget)
		}
		if pt.Met != (pt.Servers >= plan.Servers) {
			return fmt.Errorf("probe %d servers: met=%v is not monotone around the answer %d",
				pt.Servers, pt.Met, plan.Servers)
		}
		found = found || (pt.Servers == plan.Servers && pt.ViolationWindows == plan.ViolationWindows)
		below = below || pt.Servers == plan.Servers-1
	}
	if !plan.Feasible || !found || !below {
		return fmt.Errorf("answer %d servers is not the minimum meeting budget %d", plan.Servers, plan.Budget)
	}
	return nil
}
