// Decision tracing: every scheduling decision as a first-class,
// replayable data record. The ROADMAP's complaint is that the scheduler's
// per-window reasoning is opaque — we can show *that* feedback beats
// proportional on the failover day but not *why*. Tracing answers that by
// capturing, per window, the signal the scheduler acted on (offered
// demand, pressure weight, measured slack and violations), what it wanted
// (desired core counts), what it did (cores gained/lost, rebalance vs
// hysteresis suppression, migrations charged) and — optionally — what it
// could have done instead: the counterfactual evaluator re-answers the
// same window under the k most promising single-core moves and records
// the regret of the chosen assignment.
//
// Tracing is off by default and costs nothing when off: the scheduler's hot
// path adds one level check per window, and no record is allocated. The
// trace is part of Result, so the determinism contract extends to it —
// records are built behind the window barrier on the engine goroutine and
// depend only on the seed, never on the worker count.
package fleet

import (
	"fmt"
	"sort"

	"stretch/internal/queueing"
	"stretch/internal/rng"
)

// TraceLevel selects how much of each window's scheduling decision is
// recorded into Result.DecisionTrace.
type TraceLevel int

// Trace levels.
const (
	// TraceOff records nothing (the default; zero hot-path cost).
	TraceOff TraceLevel = iota
	// TraceSummary records one DecisionRecord per window: per-client
	// allocation deltas and driving signals, rebalance/suppression flags,
	// migration counts — everything except the raw per-core assignment.
	TraceSummary
	// TraceFull additionally snapshots the per-core assignment (owner,
	// routed rate, migration flag) into each record, which is what lets
	// tests replay a trace and reproduce the engine's exact schedule.
	TraceFull
)

// String names the trace level.
func (l TraceLevel) String() string {
	switch l {
	case TraceOff:
		return "off"
	case TraceSummary:
		return "summary"
	case TraceFull:
		return "full"
	default:
		return fmt.Sprintf("TraceLevel(%d)", int(l))
	}
}

// Validate rejects unknown trace levels.
func (l TraceLevel) Validate() error {
	switch l {
	case TraceOff, TraceSummary, TraceFull:
		return nil
	}
	return fmt.Errorf("fleet: unknown trace level %d", int(l))
}

// ParseTraceLevel resolves a trace-level name (off|summary|full).
func ParseTraceLevel(s string) (TraceLevel, error) {
	switch s {
	case "", "off":
		return TraceOff, nil
	case "summary":
		return TraceSummary, nil
	case "full":
		return TraceFull, nil
	}
	return 0, fmt.Errorf("fleet: unknown trace level %q (off|summary|full)", s)
}

// ClientDecision is one client's slice of a window's scheduling decision:
// the allocation it ended up with, how it changed, and the signals that
// drove the change. Slack and Violations echo the *previous* window's
// measured observation — the input the scheduler actually saw — and are
// zero at window 0, where no observation exists yet.
type ClientDecision struct {
	// Cores is the client's serving-core count this window; Gained and
	// Lost are the deltas versus the previous window (never both
	// positive). Desired is what the scheduler asked for before
	// hysteresis, rebalancing and core availability had their say (equal
	// to Cores under the static policy, which never asks).
	Cores, Gained, Lost, Desired int
	// OfferedRPS is the client's total offered arrival rate this window
	// (surge-adjusted), and Demand the SLO-weighted, pressure-weighted
	// demand signal handed to the core divider: OfferedRPS normalised by
	// the service's per-core saturation rate, times Weight.
	OfferedRPS, Demand float64
	// Weight is the closed-loop pressure weight (1 under the open-loop
	// policies, which have none).
	Weight float64
	// Slack is the mean measured headroom the client's monitors reported
	// last window (fraction of the tail target; negative = violating).
	Slack float64
	// Violations is the client's violating core-windows last window.
	Violations int
}

// AssignmentRecord is a TraceFull snapshot of one window's per-core
// assignment: owner sentinel/client per core, routed rate, migration flag.
// Unlike Assignment, the slices are owned by the record.
type AssignmentRecord struct {
	Client   []int16
	Rate     []float64
	Migrated []bool
}

// CounterfactualAlt is one evaluated alternative assignment: the chosen
// allocation with a single core moved from Donor to Receiver, and the
// window cost (violating core-windows under the counterfactual evaluation
// model) that move would have produced.
type CounterfactualAlt struct {
	Donor, Receiver int
	Cost            float64
}

// Counterfactual records one traced window's alternative-assignment
// evaluation: the chosen allocation's cost under the same evaluator, the
// best cost over the chosen and all alternatives, and the regret —
// ChosenCost − BestCost, ≥ 0 by construction since the chosen allocation
// participates in the minimum.
type Counterfactual struct {
	// K echoes how many alternatives were requested; Alternatives holds
	// the ones actually evaluated (fewer when the allocation admits fewer
	// legal single-core moves), in evaluated (rank) order.
	K            int
	ChosenCost   float64
	BestCost     float64
	Regret       float64
	Alternatives []CounterfactualAlt
}

// DecisionRecord is one window's complete scheduling decision. Drained,
// Parked and Idle count the non-serving cores, so the per-client Cores
// plus the three buckets always partition the fleet; consecutive records
// (with an all-idle fleet as the window-0 baseline) therefore conserve
// cores — every core gained by a client is lost by another client or by a
// non-serving bucket, which TestDecisionRecordConservation asserts.
type DecisionRecord struct {
	Window  int
	Clients []ClientDecision
	// Drained, Parked and Idle count scenario-drained, autoscaler-parked
	// and in-service-but-unassigned cores this window; Active counts
	// in-service cores (serving + idle).
	Drained, Parked, Idle, Active int
	// Moves is how many cores the scheduler's desired counts would have
	// moved; Rebalanced says whether the rebalance actually ran, Forced
	// whether a measured violation pushed it through the hysteresis
	// threshold, and Suppressed whether hysteresis swallowed a non-zero
	// desired move. The static policy never moves cores: all zero/false.
	Moves                          int
	Forced, Rebalanced, Suppressed bool
	// Migrations counts cores paying the migration penalty this window;
	// MigrationPenalty echoes the per-core penalty rate charged to them
	// (the fixed 0.25; zero in a window without migrations).
	Migrations       int
	MigrationPenalty float64
	// Counterfactual is the window's alternative-assignment evaluation
	// (nil unless Config.CounterfactualK > 0).
	Counterfactual *Counterfactual
	// Assignment is the TraceFull per-core snapshot (nil at TraceSummary).
	Assignment *AssignmentRecord
}

// record builds the window's DecisionRecord after the assignment is
// final. Only called when tracing is on; the previous window's per-client
// counts live in e.prevCount (allocated lazily, zero — an all-idle fleet —
// at window 0). The core partition (Drained, Parked, Idle, Migrations and
// MigrationPenalty) is left to runWindow, which copies it from the
// window's observation of the same assignment.
func (e *elastic) record(w int, obs *WindowObservation, desired []int, moves int, forced, rebalanced, suppressed bool) {
	if e.prevCount == nil {
		e.prevCount = make([]int, e.n)
	}
	rec := &DecisionRecord{
		Window:     w,
		Clients:    make([]ClientDecision, e.n),
		Active:     e.nActive,
		Moves:      moves,
		Forced:     forced,
		Rebalanced: rebalanced,
		Suppressed: suppressed,
	}
	for ci := range rec.Clients {
		cd := &rec.Clients[ci]
		cd.Cores = len(e.byClient[ci])
		if d := cd.Cores - e.prevCount[ci]; d > 0 {
			cd.Gained = d
		} else {
			cd.Lost = -d
		}
		if desired != nil {
			cd.Desired = desired[ci]
		} else {
			cd.Desired = cd.Cores
		}
		cd.OfferedRPS = e.load[ci]
		cd.Weight = e.weight[ci]
		cd.Demand = e.load[ci] / e.sat[ci] * cd.Weight
		if obs != nil {
			cd.Slack = obs.Clients[ci].MeanSlack
			cd.Violations = obs.Clients[ci].Violations
		}
		e.prevCount[ci] = cd.Cores
	}
	if e.trace == TraceFull {
		ar := &AssignmentRecord{
			Client:   make([]int16, e.nCores),
			Rate:     make([]float64, e.nCores),
			Migrated: make([]bool, e.nCores),
		}
		copy(ar.Client, e.asg.Client)
		copy(ar.Rate, e.asg.Rate)
		copy(ar.Migrated, e.asg.Migrated)
		rec.Assignment = ar
	}
	e.dec = rec
}

// --- Counterfactual evaluation -----------------------------------------
//
// At each traced window the engine (single-threaded, behind the Step call
// and before the cohort walk) re-answers the window under up to K
// alternative assignments. The alternative space is the single-core moves
// off the chosen allocation — one core handed from a donor client to a
// receiver — ranked by how promising last window's measurements make them
// (receivers with violations, donors with slack) and truncated to the K
// best. Each allocation, the chosen one included, is costed under a
// shared representative-core model: every client's load splits evenly
// over its cores at generation-neutral performance, one tail answers the
// whole client, and each core of a client whose tail exceeds its target
// counts as a violating core-window. The regret of the chosen assignment
// is its cost minus the best cost over all evaluated allocations — ≥ 0 by
// construction.
//
// Determinism: the evaluator draws its seed from (Seed, window, client)
// only, reuses one dedicated Simulator, and — identical seeds per (w, ci)
// across allocations — compares alternatives under common random numbers.
// Under the auto engine it answers eligible (utilization within the
// analytic ceiling, structurally solvable) evaluations from the analytic
// fast path instead, exactly like the main engine's steady windows.

// cfLabel derives the counterfactual evaluator's rng branch from the
// experiment seed, disjoint from the simulation (0xF1EE7) and scheduler
// (0x70C2) branches.
const cfLabel = 0xCF0F

// cfKey caches one window's evaluated (client, core-count) tail: within a
// window the seed and load are fixed, so equal counts give equal rates and
// equal tails on every evaluated allocation.
type cfKey struct{ ci, count int }

// counterfactual evaluates window w's chosen allocation against up to
// e.cfK single-core-move alternatives and attaches the outcome to rec.
func (e *engine) counterfactual(w int, rec *DecisionRecord) error {
	n := len(rec.Clients)
	counts := make([]int, n)
	for ci := range counts {
		counts[ci] = rec.Clients[ci].Cores
		e.cfLoad[ci] = rec.Clients[ci].OfferedRPS
	}
	clear(e.cfCache)

	chosen, err := e.cfCost(w, counts)
	if err != nil {
		return err
	}
	cf := &Counterfactual{K: e.cfK, ChosenCost: chosen, BestCost: chosen}

	type cand struct {
		donor, receiver int
		score           float64
	}
	var cands []cand
	for d := 0; d < n; d++ {
		// The scheduler's floor: a move never strips a client to zero
		// cores, whose cost the representative-core model could not
		// express.
		if counts[d] <= minCores {
			continue
		}
		dc := &rec.Clients[d]
		for r := 0; r < n; r++ {
			if r == d {
				continue
			}
			rc := &rec.Clients[r]
			// Prior ranking from last window's signals: moving a core to
			// a violating client from a slack-rich one is the most
			// promising alternative; violations dominate slack.
			score := 1000*float64(rc.Violations-dc.Violations) + (dc.Slack - rc.Slack)
			cands = append(cands, cand{d, r, score})
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].score > cands[b].score })
	if len(cands) > e.cfK {
		cands = cands[:e.cfK]
	}
	for _, c := range cands {
		counts[c.donor]--
		counts[c.receiver]++
		cost, err := e.cfCost(w, counts)
		counts[c.donor]++
		counts[c.receiver]--
		if err != nil {
			return err
		}
		cf.Alternatives = append(cf.Alternatives, CounterfactualAlt{
			Donor: c.donor, Receiver: c.receiver, Cost: cost,
		})
		if cost < cf.BestCost {
			cf.BestCost = cost
		}
	}
	cf.Regret = cf.ChosenCost - cf.BestCost
	rec.Counterfactual = cf
	return nil
}

// cfCost prices one allocation for window w under the representative-core
// model: per client, load splits evenly across its cores at perf 1, and a
// tail above target makes every one of its cores a violating core-window.
func (e *engine) cfCost(w int, counts []int) (float64, error) {
	cost := 0.0
	for ci, cnt := range counts {
		load := e.cfLoad[ci]
		if cnt == 0 || load == 0 {
			continue
		}
		tail, err := e.cfTail(w, ci, cnt, load/float64(cnt))
		if err != nil {
			return 0, err
		}
		if tail > e.qcfgs[ci].QoSTargetMs {
			cost += float64(cnt)
		}
	}
	return cost, nil
}

// cfTail answers one (client, core-count) evaluation: from the window
// cache, the analytic fast path (auto engine, utilization within the
// analytic ceiling) or the dedicated discrete simulator seeded by (Seed,
// window, client).
func (e *engine) cfTail(w, ci, cnt int, rate float64) (float64, error) {
	k := cfKey{ci, cnt}
	if t, ok := e.cfCache[k]; ok {
		return t, nil
	}
	if t, ok := e.steadyTail(int16(ci), rate, 1); ok {
		e.cfCache[k] = t
		return t, nil
	}
	seed := e.cfRng.Derive(uint64(w)).Derive(uint64(ci)).Uint64()
	if err := e.cfSim.Reset(e.qcfgs[ci]); err != nil {
		return 0, err
	}
	tail, err := e.cfSim.QoS(rate, e.windowReq, 1, seed)
	if err != nil {
		return 0, err
	}
	e.cfCache[k] = tail
	return tail, nil
}

// initCounterfactual wires the evaluator's run-constant state.
func (e *engine) initCounterfactual(k int, seed uint64) {
	e.cfK = k
	e.cfRng = rng.New(seed).Derive(cfLabel)
	e.cfSim = new(queueing.Simulator)
	e.cfCache = make(map[cfKey]float64)
	e.cfLoad = make([]float64, len(e.qcfgs))
}
