// Package queueing implements the request-level discrete-event simulator
// behind the paper's §II characterisation: a latency-sensitive service is a
// pool of worker threads draining an open-loop, bursty arrival process.
// Queueing delay — not processing time — dominates the tail at high load,
// which is what creates the latency-vs-load knee of Fig. 1 and the slack
// of Fig. 2.
//
// Core performance couples in through a single perf factor: a service
// running at fraction f of full single-thread performance has its service
// times stretched by 1/f (§II's Elfen-style fine-grain interleaving, or
// SMT contention, or a Stretch partition choice). Factors above 1 are
// legal up to MaxPerfFactor: a calibrated Q-mode cell widens the LS
// thread's window past the equal-partitioning baseline the service times
// are normalised to, genuinely shortening them.
//
// Invariants: a simulation is a pure function of (Config, rate, nRequests,
// perfFactor, seed) — bit-identical on every run, with Simulator state
// never leaking between calls. Config.Estimator selects the latency store
// through stats.NewTail: an exact sorted sample or a log-bucketed
// histogram whose error is bounded by the bucket resolution. The choice
// never perturbs the simulated event sequence, only how its measurements
// are summarised.
package queueing

import (
	"fmt"
	"math"

	"stretch/internal/rng"
	"stretch/internal/stats"
	"stretch/internal/workload"
)

// MaxPerfFactor bounds the perf factor a simulation accepts. Sub-unity
// factors model contention and B-mode slowdowns; factors modestly above 1
// model Q-mode speedups relative to the equal-partitioning baseline.
// Anything larger is a calibration bug, not a plausible core.
const MaxPerfFactor = 4

// Config describes a service's request-level behaviour.
type Config struct {
	// Workers is the number of concurrent request-serving threads.
	Workers int
	// MeanServiceMs and ServiceCV shape the log-normal service time at
	// full single-thread performance.
	MeanServiceMs float64
	ServiceCV     float64
	// BurstProb is the probability an arrival is a burst head; a burst
	// head brings BurstLen-1 additional simultaneous requests. Fixed
	// burst sizes keep the idle-load tail finite while still letting
	// burst drain time stretch with background utilisation — which is
	// what makes the p99 knee appear near peak load (Fig. 1).
	BurstProb float64
	BurstLen  float64
	// QoSQuantile and QoSTargetMs define the QoS constraint.
	QoSQuantile float64
	QoSTargetMs float64
	// Estimator selects the latency store stats.NewTail builds:
	// stats.EstimatorExact retains and sorts every measured latency;
	// stats.EstimatorHistogram records into a fixed log-bucketed histogram
	// (O(1) add, bounded relative error). The zero value
	// (stats.EstimatorDefault) is exact — standalone queueing callers are
	// the paper's figures, where fidelity wins; the fleet engine passes an
	// explicit estimator.
	Estimator stats.TailEstimator
}

// ForService returns the queueing config of a catalogue service at its
// catalogue QoS target and the default (exact) estimator. Callers that
// scale the target for an SLO class or pick an estimator set those fields
// on the result.
func ForService(s workload.Service) Config {
	return Config{
		Workers: s.Workers, MeanServiceMs: s.MeanServiceMs,
		ServiceCV: s.ServiceCV, BurstProb: s.BurstProb, BurstLen: s.BurstLen,
		QoSQuantile: s.QoSQuantile, QoSTargetMs: s.QoSTargetMs,
	}
}

// Validate rejects unusable configurations. Float parameters must be
// finite: a NaN or Inf would silently poison every latency sample.
func (c Config) Validate() error {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	switch {
	case c.Workers <= 0:
		return fmt.Errorf("queueing: need at least one worker")
	case !finite(c.MeanServiceMs) || c.MeanServiceMs <= 0:
		return fmt.Errorf("queueing: non-positive service time")
	case !finite(c.ServiceCV) || c.ServiceCV < 0:
		return fmt.Errorf("queueing: negative service CV")
	case !finite(c.BurstProb) || c.BurstProb < 0 || c.BurstProb > 1:
		return fmt.Errorf("queueing: burst probability out of [0,1]")
	case !finite(c.BurstLen) || c.BurstLen < 0:
		return fmt.Errorf("queueing: negative burst length")
	case !finite(c.QoSQuantile) || c.QoSQuantile <= 0 || c.QoSQuantile >= 1:
		return fmt.Errorf("queueing: QoS quantile out of (0,1)")
	case !finite(c.QoSTargetMs) || c.QoSTargetMs <= 0:
		return fmt.Errorf("queueing: non-positive QoS target")
	}
	return c.Estimator.Validate()
}

// Result summarises one simulation.
type Result struct {
	MeanMs float64
	P95Ms  float64
	P99Ms  float64
	// QoSMs is the latency at the configured QoS quantile.
	QoSMs float64
	// MeetsQoS reports QoSMs <= QoSTargetMs.
	MeetsQoS bool
	// Requests is the number of completed requests measured.
	Requests int
}

// workerRing keeps worker free times in ascending order in a circular
// buffer whose length is a power of two at least the pool width: the
// minimum sits at head, and the pool's free times occupy the slots head,
// head+1, … (mod len). Popping the minimum advances head, which frees the
// slot just past the tail; inserting the next finish time shifts right
// only the workers that finish later than it — usually none or a few,
// since a new request rarely finishes before the ones already in service.
// Min-selection over a totally ordered multiset is the same value
// whatever structure maintains it, so results stay bit-identical to the
// heap and flat sorted slice this replaces.
type workerRing struct {
	slots []float64
	mask  int
	head  int
	n     int // pool width
}

// reset sizes the ring for n workers, all free at time 0.
func (w *workerRing) reset(n int) {
	size := 1
	for size < n {
		size <<= 1
	}
	if cap(w.slots) < size {
		w.slots = make([]float64, size)
	} else {
		w.slots = w.slots[:size]
		clear(w.slots)
	}
	w.mask = size - 1
	w.head = 0
	w.n = n
}

// min returns the earliest worker free time.
func (w *workerRing) min() float64 { return w.slots[w.head] }

// replaceMin drops the minimum and inserts v in order.
func (w *workerRing) replaceMin(v float64) {
	slots, mask := w.slots, w.mask
	w.head = (w.head + 1) & mask
	j := w.head + w.n - 1 // the slot just past the remaining n-1 workers
	for j > w.head && slots[(j-1)&mask] > v {
		slots[j&mask] = slots[(j-1)&mask]
		j--
	}
	slots[j&mask] = v
}

// Simulator runs request-level simulations with reusable state: the worker
// ring, the latency store, the per-request service, arrival, start-time
// and latency buffers and the arrival draw blocks persist across runs, so a caller stepping
// many monitoring windows (the fleet engine's hot loop) pays no per-window
// allocations. The zero value is ready after Reset. A Simulator is not
// safe for concurrent use; share one per goroutine.
type Simulator struct {
	cfg Config
	// validated marks cfg as having passed Validate, letting Reset skip
	// revalidating an unchanged config on the fleet's per-window hot loop.
	// A bare equality check would not do: the zero Simulator's zero cfg
	// must still be rejected until a Validate has actually run.
	validated bool
	workers   workerRing
	// lat is the latency store cfg.Estimator selects (stats.NewTail),
	// rebuilt only when a Reset changes the estimator.
	lat stats.Tail
	// arrGaps/arrHeads buffer batched (inter-arrival gap, burst head) draw
	// pairs from the arrival stream, refilled in blocks so the arrival
	// pass amortises the per-draw call overhead. Consumption order is
	// identical to the historical per-arrival draws (rng.Stream.FillArrivals).
	arrGaps  []float64
	arrHeads []bool
	// svcMs and arrivalMs hold one run's per-request service times and
	// arrival instants, filled by the first two passes of run and
	// consumed by the queue pass, which records each post-warm-up latency
	// in latMs.
	svcMs     []float64
	arrivalMs []float64
	latMs     []float64
}

// arrivalBatch is the block size of buffered arrival draws. Over-drawing
// past the last arrival is harmless: the arrival stream is derived fresh
// per run and discarded with it.
const arrivalBatch = 256

// NewSimulator builds a Simulator for cfg.
func NewSimulator(cfg Config) (*Simulator, error) {
	s := &Simulator{}
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset swaps in a service configuration, keeping the allocated buffers
// for reuse by the next run. Resetting to the configuration already in
// place (the common case on the fleet's per-window loop, where a core
// keeps its client across windows) skips the revalidation: Config is a
// comparable value type, so equality means the earlier Validate verdict
// still holds.
func (s *Simulator) Reset(cfg Config) error {
	if s.validated && cfg == s.cfg {
		return nil
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if s.lat == nil || cfg.Estimator != s.cfg.Estimator {
		s.lat = stats.NewTail(cfg.Estimator, 0)
	}
	s.cfg = cfg
	s.validated = true
	return nil
}

// Simulate runs nRequests through the configured service at the given
// arrival rate (requests per second) with the core at perfFactor of full
// single-thread performance. The first 10% of requests are warm-up and
// excluded. Results are bit-identical to the package-level Simulate for
// the same (config, arguments, seed), regardless of what the Simulator ran
// before. Callers that read only the QoS tail use QoS, which skips the
// other summaries.
func (s *Simulator) Simulate(ratePerSec float64, nRequests int, perfFactor float64, seed uint64) (Result, error) {
	if err := s.run(ratePerSec, nRequests, perfFactor, seed); err != nil {
		return Result{}, err
	}
	var mean stats.Running
	for _, l := range s.latMs {
		mean.Add(l)
	}
	lat := s.fillLat()
	r := Result{
		MeanMs: mean.Mean(),
		P95Ms:  lat.Quantile(0.95), P99Ms: lat.Quantile(0.99), QoSMs: lat.Quantile(s.cfg.QoSQuantile),
		Requests: lat.N(),
	}
	r.MeetsQoS = r.QoSMs <= s.cfg.QoSTargetMs
	return r, nil
}

// QoS runs the same simulation as Simulate and returns only its QoSMs,
// bit for bit, without the mean or the other quantiles:
// the fleet engine's per-window call and the bisections' probes read
// nothing else.
func (s *Simulator) QoS(ratePerSec float64, nRequests int, perfFactor float64, seed uint64) (float64, error) {
	if err := s.run(ratePerSec, nRequests, perfFactor, seed); err != nil {
		return 0, err
	}
	return s.fillLat().Quantile(s.cfg.QoSQuantile), nil
}

// fillLat loads the last run's latencies into the latency store.
func (s *Simulator) fillLat() stats.Tail {
	s.lat.Reset()
	s.lat.AddAll(s.latMs)
	return s.lat
}

// run is the simulation kernel behind Simulate and QoS. It is three
// passes over per-request buffers: draw every service time, build the
// arrival timeline, then run the FCFS queue over the two, leaving
// post-warm-up latencies, in arrival order, in latMs.
// The service and arrival streams are independent and each is consumed in
// request order exactly as an interleaved loop would, so splitting the
// passes changes no value; it lets the service draws' transcendental calls
// overlap instead of waiting behind the queue's loop-carried state.
func (s *Simulator) run(ratePerSec float64, nRequests int, perfFactor float64, seed uint64) error {
	cfg := s.cfg
	if cfg.Workers <= 0 {
		return fmt.Errorf("queueing: Simulator not configured (call Reset first)")
	}
	if ratePerSec <= 0 || nRequests <= 0 {
		return fmt.Errorf("queueing: non-positive rate or request count")
	}
	if perfFactor <= 0 || perfFactor > MaxPerfFactor || math.IsNaN(perfFactor) {
		return fmt.Errorf("queueing: perf factor %v out of (0,%v]", perfFactor, float64(MaxPerfFactor))
	}

	// Pass 1: service times. Constants hoisted out of the per-request
	// LogNormal — sigma², mu and sqrt(sigma²) depend only on
	// (MeanServiceMs, ServiceCV) — keep every draw bit-identical: same
	// expression, same evaluation order.
	svcStream := rng.New(seed).Derive(2)
	svcSigma2 := math.Log(1 + cfg.ServiceCV*cfg.ServiceCV)
	svcMu := math.Log(cfg.MeanServiceMs) - svcSigma2/2
	svcSig := math.Sqrt(svcSigma2)
	s.svcMs = resize(s.svcMs, nRequests)
	svcMs := s.svcMs
	for i := range svcMs {
		svcMs[i] = math.Exp(svcMu+svcSig*svcStream.Normal()) / perfFactor
	}

	// Pass 2: arrival timeline. Arrival draws are consumed from a
	// block-refilled buffer: one (gap, head) pair per burst head, in
	// exactly the order the unbatched loop drew them. Each refill is sized
	// to the requests still outstanding — an upper bound on the arrival
	// draws they can consume — so a short simulation (the fleet's
	// per-window budget) never pays for draws past its last arrival.
	arrStream := rng.New(seed).Derive(1)
	if s.arrGaps == nil {
		s.arrGaps = make([]float64, arrivalBatch)
		s.arrHeads = make([]bool, arrivalBatch)
	}
	s.arrivalMs = resize(s.arrivalMs, nRequests)
	arrivalMs := s.arrivalMs
	meanGapMs := 1000 / ratePerSec
	now := 0.0             // arrival clock, ms
	pending := 0           // requests in this burst still to arrive at `now`
	arrPos, arrLen := 0, 0 // empty: first use triggers a refill
	for i := range arrivalMs {
		if pending > 0 {
			pending--
		} else {
			if arrPos == arrLen {
				arrLen = nRequests - i
				if arrLen > arrivalBatch {
					arrLen = arrivalBatch
				}
				arrStream.FillArrivals(s.arrGaps[:arrLen], s.arrHeads[:arrLen], meanGapMs, cfg.BurstProb)
				arrPos = 0
			}
			now += s.arrGaps[arrPos]
			if s.arrHeads[arrPos] {
				pending = int(cfg.BurstLen) - 1
				if pending < 0 {
					pending = 0
				}
			}
			arrPos++
		}
		arrivalMs[i] = now
	}

	// Pass 3: the FCFS k-server queue in arrival order. With identical
	// workers, assigning each request to the earliest-free worker in
	// arrival order is exactly FCFS.
	warm := nRequests / 10
	s.workers.reset(cfg.Workers)
	workers := &s.workers
	s.latMs = resize(s.latMs, nRequests-warm)
	latMs := s.latMs
	for i, now := range arrivalMs {
		start := workers.min()
		if now > start {
			start = now
		}
		finish := start + svcMs[i]
		workers.replaceMin(finish)
		if i >= warm {
			latMs[i-warm] = finish - now
		}
	}
	return nil
}

// resize returns buf with length n, reallocating only when its capacity
// is short. The contents are unspecified; callers overwrite every slot.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Simulate runs nRequests through the service at the given arrival rate
// (requests per second) with the core at perfFactor of full single-thread
// performance. The first 10% of requests are warm-up and excluded. It is
// the one-shot form of Simulator.Simulate; callers stepping many windows
// should hold a Simulator to amortise the allocations.
func Simulate(cfg Config, ratePerSec float64, nRequests int, perfFactor float64, seed uint64) (Result, error) {
	var s Simulator
	if err := s.Reset(cfg); err != nil {
		return Result{}, err
	}
	return s.Simulate(ratePerSec, nRequests, perfFactor, seed)
}

// PeakLoad finds the highest arrival rate (req/s) that still meets the QoS
// target at full performance — the paper's "peak sustainable load" that
// anchors the X axes of Figs. 1 and 2. The answer is always below the
// pool's burst-aware saturation rate, 1/Utilization(cfg, 1, 1): at or
// above it the queue grows without bound, so a finite run that happens to
// meet the target there measures its warm-up, not a sustainable load, and
// such a probe counts as missing QoS without being simulated.
func PeakLoad(cfg Config, nRequests int, seed uint64) (float64, error) {
	// One Simulator serves every probe: its buffers are sized once and
	// no state leaks between calls.
	sim, err := NewSimulator(cfg)
	if err != nil {
		return 0, err
	}
	// The burst-free saturation rate of the worker pool brackets the
	// search.
	satRate := float64(cfg.Workers) * 1000 / cfg.MeanServiceMs
	unstable := 1 / Utilization(cfg, 1, 1)
	lo, hi := satRate*0.05, satRate*1.2
	for i := 0; i < 24; i++ {
		mid := (lo + hi) / 2
		if mid >= unstable {
			hi = mid
			continue
		}
		qos, err := sim.QoS(mid, nRequests, 1.0, seed)
		if err != nil {
			return 0, err
		}
		if qos <= cfg.QoSTargetMs {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// LoadCurve returns mean/p95/p99 latency at the given fractions of peak
// load (Fig. 1).
func LoadCurve(cfg Config, peak float64, fractions []float64, nRequests int, seed uint64) ([]Result, error) {
	sim, err := NewSimulator(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(fractions))
	for _, f := range fractions {
		if f <= 0 {
			return nil, fmt.Errorf("queueing: non-positive load fraction %v", f)
		}
		r, err := sim.Simulate(peak*f, nRequests, 1.0, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
