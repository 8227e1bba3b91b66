// The fleet scheduler decides, window by window, which client each SMT
// core serves and at what arrival rate — turning the §VI-D observation
// that Stretch's value comes from *reacting to load* into a first-class,
// replayable policy. One concrete type, elastic, serves every policy:
// newScheduler fixes the static inputs, then the engine calls Step once
// per window — with the previous window's *measured* observation — and
// gets the window's assignment back. The open-loop policies (static,
// proportional, p2c) decide from offered load alone and ignore the
// observation, so their schedules are bit-identical to the former
// precomputed plan; PolicyFeedback (feedback.go) closes the loop on
// measured tails. Scheduling draws only from its own seed-derived rng
// stream, never from simulation randomness, so results stay bit-identical
// for identical seeds regardless of the worker count.
package fleet

import (
	"fmt"
	"sort"

	"stretch/internal/loadgen"
	"stretch/internal/rng"
	"stretch/internal/workload"
)

// Policy selects how the scheduler divides cores and load.
type Policy int

// Scheduler policies.
const (
	// PolicyStatic is the fixed split: each client owns the cores its
	// Fraction bought for the whole horizon, and its load divides evenly
	// across whichever of them are in service. No cores move between
	// clients; drained servers still reroute load within the client.
	PolicyStatic Policy = iota
	// PolicyProportional re-divides all in-service cores every window in
	// proportion to each client's current offered load (normalised by its
	// service's per-core saturation rate), subject to min-core floors and
	// a rebalance hysteresis; load splits evenly within a client.
	PolicyProportional
	// PolicyP2C allocates cores like PolicyProportional but routes each
	// window's load across a client's cores with power-of-two-choices
	// instead of an even split: the load arrives in chunks, each chunk
	// picking the less-loaded of two uniformly sampled cores.
	PolicyP2C
	// PolicyFeedback allocates like PolicyProportional but weights each
	// client's demand by a closed-loop pressure signal from the previous
	// window's measurements: clients with violating core-windows gain
	// weight (and steal cores), clients whose observed tails sit far below
	// target decay and release them — all under the same hysteresis,
	// min-core-floor and migration-penalty machinery.
	PolicyFeedback
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyStatic:
		return "static"
	case PolicyProportional:
		return "proportional"
	case PolicyP2C:
		return "p2c"
	case PolicyFeedback:
		return "feedback"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy resolves a policy name (static|proportional|p2c|feedback).
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "static", "":
		return PolicyStatic, nil
	case "proportional":
		return PolicyProportional, nil
	case "p2c":
		return PolicyP2C, nil
	case "feedback":
		return PolicyFeedback, nil
	default:
		return 0, fmt.Errorf("fleet: unknown policy %q (static|proportional|p2c|feedback)", s)
	}
}

// SchedulerConfig tunes the elastic reallocation.
type SchedulerConfig struct {
	// Policy selects the allocation/routing policy (default static).
	Policy Policy
	// Hysteresis is the fraction of in-service cores that would have to
	// move before a rebalance is worth its migration cost; smaller demand
	// drifts keep the current assignment (zero defaults to 0.1). Drains
	// and restores always force a rebalance.
	Hysteresis float64

	// FeedbackGain and FeedbackDecay tune PolicyFeedback's closed loop
	// (see feedback.go): gain scales how fast a violating client's
	// pressure weight grows, decay shrinks a slack-rich client's weight
	// each window. Zero means the hand-tuned defaults (1.5 and 0.92);
	// both are ignored by the open-loop policies. These are the knobs the
	// search driver (search.go) sweeps, together with Hysteresis.
	FeedbackGain, FeedbackDecay float64
}

// minCores is the per-client core floor the elastic policies respect; a
// degraded fleet with fewer in-service cores than clients×minCores lowers
// the floor (allocCounts), down to zero.
const minCores = 1

// migrationPenalty models the cost of moving a core to a new client: for
// its first window on the new client the core runs the LS service at
// (1-migrationPenalty) of its performance (cold caches, state handoff).
// It starts that window on a reset controller in Baseline, so it has no
// B-mode batch bonus to forfeit.
const migrationPenalty = 0.25

// defaultHysteresis is the rebalance threshold when Hysteresis is zero.
const defaultHysteresis = 0.1

// WithDefaults resolves every zero field to the value a run actually
// uses — what newScheduler sees, and what search reports so tunings
// never show as zero placeholders.
func (s SchedulerConfig) WithDefaults() SchedulerConfig {
	if s.Hysteresis == 0 {
		s.Hysteresis = defaultHysteresis
	}
	if s.FeedbackGain == 0 {
		s.FeedbackGain = feedbackGain
	}
	if s.FeedbackDecay == 0 {
		s.FeedbackDecay = feedbackDecay
	}
	return s
}

// Validate rejects unusable tunings, NaN included. Zero fields are legal
// (defaulted).
func (s SchedulerConfig) Validate() error {
	switch {
	case s.Policy < PolicyStatic || s.Policy > PolicyFeedback:
		return fmt.Errorf("fleet: unknown scheduler policy %d", int(s.Policy))
	case !(0 <= s.Hysteresis && s.Hysteresis < 1):
		return fmt.Errorf("fleet: hysteresis %v out of [0,1)", s.Hysteresis)
	case !(0 <= s.FeedbackGain):
		return fmt.Errorf("fleet: feedback gain %v is negative or NaN", s.FeedbackGain)
	case !(0 <= s.FeedbackDecay && s.FeedbackDecay <= 1):
		return fmt.Errorf("fleet: feedback decay %v out of [0,1]", s.FeedbackDecay)
	}
	return nil
}

// Core-assignment sentinels used in Assignment.Client.
const (
	// coreIdle marks an in-service core with no client this window.
	coreIdle int16 = -1
	// coreDrained marks a core whose server the scenario took out of
	// service (failure / maintenance drain).
	coreDrained int16 = -2
	// coreParked marks a core whose server the autoscaler scaled in: out
	// of service like a drain, but by fleet-sizing choice rather than
	// scenario event, and accounted separately.
	coreParked int16 = -3
)

// p2cChunksPerCore is how many routing chunks each core's share of a
// window's load splits into; more chunks = smoother balancing.
const p2cChunksPerCore = 8

// Assignment is one window's scheduling decision: for every core, the
// client served (or an idle/drained sentinel), the arrival rate routed to
// it, and whether it pays the migration penalty this window. The slices
// belong to the scheduler and are valid only until the next Step call.
type Assignment struct {
	Client   []int16
	Rate     []float64
	Migrated []bool
}

// elastic is the fleet scheduler for every built-in policy; the policies
// differ only in how desired core counts are weighted (PolicyFeedback's
// pressure weights, feedback.go), whether cores move at all (not under
// PolicyStatic) and p2c's routing. All scratch state is owned by the
// scheduler, so Step performs no per-window allocations beyond the
// desired count slice.
type elastic struct {
	sched   SchedulerConfig
	auto    Autoscaler // nil when autoscaling is off
	autoMin int        // in-service server floor for the autoscaler

	nCores, coresPerServer, windows, n int

	rates      [][]float64 // per-client offered-load timelines
	sat, fracs []float64
	drained    [][]bool
	surge      [][]float64

	route  *rng.Stream
	owner  []int16
	active []bool
	// lastOwner is the last *real* client each core served (coreIdle
	// until the first assignment); sentinels are never written to it, so
	// a core resuming its previous client after a drain, park or idle gap
	// is not a migration — only a genuine owner change pays the penalty.
	lastOwner []int16
	parked    []bool // per-server: scaled in by the autoscaler
	joined    []bool // per-server: unparked this window (pays warm-up)
	load      []float64
	demand    []float64
	// weight is each client's pressure weight on its demand: 1 unless
	// PolicyFeedback's closed loop moves it.
	weight   []float64
	cur      []int
	byClient [][]int
	per      []float64 // p2c routing scratch
	nActive  int

	// Decision tracing (decision.go): prevCount holds the previous
	// window's per-client core counts for the gained/lost deltas, dec the
	// record built by the most recent Step. Both stay nil when trace is
	// TraceOff, which is the entire hot-path cost of the feature.
	trace     TraceLevel
	prevCount []int
	dec       *DecisionRecord

	asg Assignment
}

// newScheduler builds the scheduler for cfg from the per-client offered
// load timelines (already drawn from the seed): it resolves the scheduler
// and autoscale defaults, the demand normalisation, the scenario's
// drain/surge matrices, and the window-0 ownership from the static
// Fraction split.
func newScheduler(cfg Config, timelines map[string][]float64) (*elastic, error) {
	auto := cfg.Autoscale.withDefaults()
	nCores := cfg.Servers * cfg.CoresPerServer
	clients := cfg.Traffic.Clients
	n := len(clients)
	e := &elastic{
		sched: cfg.Scheduler.WithDefaults(), auto: newAutoscaler(auto), autoMin: auto.MinServers,
		nCores: nCores, coresPerServer: cfg.CoresPerServer, windows: cfg.Traffic.Windows, n: n,
		trace: cfg.DecisionTrace,
	}

	names := make([]string, n)
	e.rates = make([][]float64, n)
	e.sat = make([]float64, n)
	e.fracs = make([]float64, n)
	e.weight = make([]float64, n)
	for i, c := range clients {
		names[i] = c.Name
		tl, ok := timelines[c.Name]
		if !ok || len(tl) < e.windows {
			return nil, fmt.Errorf("fleet: client %q has no %d-window timeline", c.Name, e.windows)
		}
		e.rates[i] = tl
		svc := workload.Services()[c.Service]
		// Demand normalises offered load by the service's per-core
		// saturation rate and weights it by SLO class: a strict client
		// needs proportionally more headroom per unit of load than a
		// relaxed one, whose slack the batch side can harvest instead.
		e.sat[i] = float64(svc.Workers) * 1000 / svc.MeanServiceMs * c.SLO.Scale()
		e.fracs[i] = c.Fraction
		e.weight[i] = 1
	}
	e.drained = cfg.Scenario.DrainMask(cfg.Servers, e.windows)
	e.surge = cfg.Scenario.SurgeMatrix(names, e.windows)

	// Owners start from the static Fraction split; elastic policies adjust
	// them window by window. Drained cores keep their owner so a restored
	// server resumes where it left off until the next rebalance.
	e.owner = make([]int16, nCores)
	idx := 0
	for ci, k := range assignCores(clients, nCores) {
		for j := 0; j < k; j++ {
			e.owner[idx] = int16(ci)
			idx++
		}
	}
	for ; idx < nCores; idx++ {
		e.owner[idx] = coreIdle
	}

	e.route = rng.New(cfg.Seed).Derive(0x70C2)
	e.active = make([]bool, nCores)
	// The planned window-0 owners are the baseline: like window 0 itself,
	// a core's first window on its planned client is free.
	e.lastOwner = make([]int16, nCores)
	copy(e.lastOwner, e.owner)
	e.parked = make([]bool, cfg.Servers)
	e.joined = make([]bool, cfg.Servers)
	e.load = make([]float64, n)
	e.demand = make([]float64, n)
	e.cur = make([]int, n)
	e.byClient = make([][]int, n)
	e.asg = Assignment{
		Client:   make([]int16, nCores),
		Rate:     make([]float64, nCores),
		Migrated: make([]bool, nCores),
	}
	return e, nil
}

// Step decides window w from the previous window's measured observation
// (nil at window 0): compute offered load, let the autoscaler park/unpark
// servers, compose that with the scenario drain mask, move cores toward
// the desired counts (behind the hysteresis threshold; never under
// PolicyStatic), then route each client's load across its in-service
// cores.
func (e *elastic) Step(w int, obs *WindowObservation) Assignment {
	nCores, n := e.nCores, e.n
	for ci := 0; ci < n; ci++ {
		e.load[ci] = e.rates[ci][w] * e.surge[ci][w]
	}
	if e.auto != nil {
		e.autoscale(w, obs)
	}
	nActive := 0
	drainChanged := w == 0
	for c := 0; c < nCores; c++ {
		srv := c / e.coresPerServer
		a := !e.drained[srv][w] && !e.parked[srv]
		if w > 0 && a != e.active[c] {
			drainChanged = true
		}
		e.active[c] = a
		if a {
			nActive++
		}
	}
	e.nActive = nActive

	var desired []int
	moves := 0
	forced, rebalanced := false, false
	if e.sched.Policy != PolicyStatic && nActive > 0 {
		for ci := range e.cur {
			e.cur[ci] = 0
		}
		for c := 0; c < nCores; c++ {
			if e.active[c] && e.owner[c] >= 0 {
				e.cur[e.owner[c]]++
			}
		}
		if e.sched.Policy == PolicyFeedback {
			forced = e.updateWeights(obs)
		}
		desired = e.desired()
		for ci := range desired {
			if d := desired[ci] - e.cur[ci]; d > 0 {
				moves += d
			}
		}
		if drainChanged || (forced && moves > 0) ||
			float64(moves) > e.sched.Hysteresis*float64(nActive) {
			rebalance(e.owner, e.active, e.cur, desired)
			rebalanced = true
		}
	}

	// Record assignments, migrations and per-client core lists.
	for ci := range e.byClient {
		e.byClient[ci] = e.byClient[ci][:0]
	}
	for c := 0; c < nCores; c++ {
		cl := e.owner[c]
		srv := c / e.coresPerServer
		if !e.active[c] {
			// Scenario drains take precedence over parking in the books:
			// a parked server that fails is a failed server.
			if e.drained[srv][w] {
				cl = coreDrained
			} else {
				cl = coreParked
			}
		}
		e.asg.Client[c] = cl
		e.asg.Rate[c] = 0
		e.asg.Migrated[c] = false
		if cl >= 0 {
			// A migration is a genuine owner change (never a resume after
			// a drain, park or idle gap) — or the warm-up a freshly
			// unparked server's cores pay on their first active window.
			if (w > 0 && e.lastOwner[c] != cl) || e.joined[srv] {
				e.asg.Migrated[c] = true
			}
			e.byClient[cl] = append(e.byClient[cl], c)
			e.lastOwner[c] = cl
		}
	}

	// Route each client's offered load across its in-service cores.
	for ci := 0; ci < n; ci++ {
		cores := e.byClient[ci]
		k := len(cores)
		if k == 0 || e.load[ci] == 0 {
			continue
		}
		if e.sched.Policy == PolicyP2C && k > 1 {
			chunks := p2cChunksPerCore * k
			q := e.load[ci] / float64(chunks)
			if cap(e.per) < k {
				e.per = make([]float64, k)
			}
			per := e.per[:k]
			for i := range per {
				per[i] = 0
			}
			for j := 0; j < chunks; j++ {
				a := e.route.Intn(k)
				if b := e.route.Intn(k); per[b] < per[a] {
					a = b
				}
				per[a] += q
			}
			for i, c := range cores {
				e.asg.Rate[c] = per[i]
			}
		} else {
			r := e.load[ci] / float64(k)
			for _, c := range cores {
				e.asg.Rate[c] = r
			}
		}
	}
	if e.trace != TraceOff {
		e.record(w, obs, desired, moves, forced, rebalanced, moves > 0 && !rebalanced)
	}
	return e.asg
}

// desired divides the in-service cores across clients in proportion to
// weighted demand: offered load over the per-core saturation rate, times
// the client's pressure weight.
func (e *elastic) desired() []int {
	for ci := range e.demand {
		e.demand[ci] = e.load[ci] / e.sat[ci] * e.weight[ci]
	}
	return allocCounts(e.demand, e.fracs, e.nActive, minCores)
}

// autoscale runs one scaling decision: build the fleet state, ask the
// policy how many servers should be up, clamp to [MinServers, available]
// and park/unpark whole servers. Unparking picks the lowest-index parked
// server first and parking the highest-index up server first, so the
// fleet grows and shrinks at the same deterministic edge regardless of
// worker count. Servers unparked at w>0 are marked joined for this window
// so their cores pay the warm-up cost.
func (e *elastic) autoscale(w int, obs *WindowObservation) {
	servers := e.nCores / e.coresPerServer
	avail, up := 0, 0
	for s := 0; s < servers; s++ {
		e.joined[s] = false
		if e.drained[s][w] {
			continue
		}
		avail++
		if !e.parked[s] {
			up++
		}
	}
	demand := 0.0
	for ci := range e.load {
		demand += e.load[ci] / e.sat[ci]
	}
	want := e.auto.DesiredServers(w, obs, ScaleState{
		AvailableServers: avail,
		UpServers:        up,
		CoresPerServer:   e.coresPerServer,
		DemandCores:      demand,
	})
	if floor := min(e.autoMin, avail); want < floor {
		want = floor
	}
	if want > avail {
		want = avail
	}
	for s := 0; s < servers && up < want; s++ {
		if e.parked[s] && !e.drained[s][w] {
			e.parked[s] = false
			if w > 0 {
				e.joined[s] = true
			}
			up++
		}
	}
	for s := servers - 1; s >= 0 && up > want; s-- {
		if !e.parked[s] && !e.drained[s][w] {
			e.parked[s] = true
			up--
		}
	}
}

// allocCounts divides nActive cores across clients proportionally to
// demand (falling back to the configured fractions when no client offers
// load), with a per-client floor and largest-remainder rounding. The
// result always sums to min(nActive, …): every in-service core is put to
// work — a core serving a lightly loaded client still harvests B-mode
// batch hours, an idle one harvests nothing.
func allocCounts(demand, fracs []float64, nActive, minCores int) []int {
	n := len(demand)
	out := make([]int, n)
	if nActive <= 0 || n == 0 {
		return out
	}
	sum := 0.0
	for _, d := range demand {
		sum += d
	}
	if sum <= 0 {
		demand = fracs
		sum = 0
		for _, d := range demand {
			sum += d
		}
	}
	floor := minCores
	if floor > nActive/n {
		floor = nActive / n
	}
	spare := nActive - floor*n
	if sum <= 0 {
		// No demand and no fractions to fall back on: d/sum would make
		// every share NaN and the remainder sort arbitrary. Split evenly.
		for i := range out {
			out[i] = floor + spare/n
		}
		for i := 0; i < spare%n; i++ {
			out[i]++
		}
		return out
	}
	type share struct {
		idx  int
		frac float64
	}
	shares := make([]share, n)
	used := 0
	for i, d := range demand {
		exact := d / sum * float64(spare)
		k := int(exact)
		out[i] = floor + k
		used += k
		shares[i] = share{i, exact - float64(k)}
	}
	sort.SliceStable(shares, func(a, b int) bool { return shares[a].frac > shares[b].frac })
	for k := 0; used < spare; k = (k + 1) % n {
		out[shares[k].idx]++
		used++
	}
	return out
}

// rebalance minimally edits the owner mapping so each client's in-service
// core count matches desired: surplus clients release their highest-index
// cores, deficit clients claim the lowest-index free ones. cur is updated
// in place.
func rebalance(owner []int16, active []bool, cur, desired []int) {
	var free []int
	for c := len(owner) - 1; c >= 0; c-- {
		if !active[c] {
			continue
		}
		ci := owner[c]
		if ci == coreIdle {
			free = append(free, c)
			continue
		}
		if cur[ci] > desired[ci] {
			owner[c] = coreIdle
			cur[ci]--
			free = append(free, c)
		}
	}
	sort.Ints(free)
	fi := 0
	for ci := range desired {
		for cur[ci] < desired[ci] && fi < len(free) {
			owner[free[fi]] = int16(ci)
			fi++
			cur[ci]++
		}
	}
}

// assignCores splits nCores across the clients proportionally to their
// fractions: floor allocation (minimum one core each), then — when the
// fractions subscribe the whole fleet — largest-remainder distribution of
// the leftover. Under-subscribed traffic leaves the remaining cores idle;
// over-allocation from the one-core minimum is reclaimed from the largest
// allocations.
func assignCores(clients []loadgen.Client, nCores int) []int {
	out := make([]int, len(clients))
	sum := 0.0
	for _, c := range clients {
		sum += c.Fraction
	}
	used := 0
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, 0, len(clients))
	for i, c := range clients {
		exact := c.Fraction * float64(nCores)
		out[i] = int(exact)
		if out[i] < 1 {
			out[i] = 1
		}
		used += out[i]
		rems = append(rems, rem{i, exact - float64(int(exact))})
	}
	for used > nCores {
		big := 0
		for i := range out {
			if out[i] > out[big] {
				big = i
			}
		}
		out[big]--
		used--
	}
	if sum > 1-1e-9 {
		sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
		for k := 0; used < nCores; k = (k + 1) % len(rems) {
			out[rems[k].idx]++
			used++
		}
	}
	return out
}
