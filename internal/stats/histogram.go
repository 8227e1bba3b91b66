package stats

import (
	"fmt"
	"math"
)

// TailEstimator selects how a component estimates tail-latency quantiles.
type TailEstimator int

// Tail estimators.
const (
	// EstimatorDefault is exact in NewTail (full fidelity for the
	// paper's figures, which run the queueing model standalone); the
	// fleet engine resolves it to EstimatorHistogram (O(1) memory in the
	// request count) before building any store.
	EstimatorDefault TailEstimator = iota
	// EstimatorExact retains every observation in a Sample and selects
	// the order statistics each quantile query needs: exact, but memory
	// and time scale with the number of observations.
	EstimatorExact
	// EstimatorHistogram records observations into a fixed log-bucketed
	// Histogram: quantiles carry a bounded relative error (the bucket
	// resolution) but Add is O(1) and memory is O(buckets).
	EstimatorHistogram
)

// Tail is a tail-latency store: the one interface behind which both
// estimators' stores sit. Either store's quantiles depend only on the
// multiset of values added, never on their order or on how they were
// batched into Add, AddN and AddAll calls.
type Tail interface {
	Add(x float64)
	AddN(x float64, n uint64)
	AddAll(xs []float64)
	Quantile(q float64) float64
	N() int
	Reset()
}

// NewTail returns the store est selects, and is the one place an
// estimator maps to a store: a Histogram for EstimatorHistogram, otherwise
// an exact Sample with capacity hint capHint. EstimatorDefault therefore
// means exact here; a consumer with a different default (the fleet
// engine) resolves it before calling.
func NewTail(est TailEstimator, capHint int) Tail {
	if est == EstimatorHistogram {
		return NewTailHistogram()
	}
	return NewSample(capHint)
}

// String names the estimator.
func (e TailEstimator) String() string {
	switch e {
	case EstimatorDefault:
		return "default"
	case EstimatorExact:
		return "exact"
	case EstimatorHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("TailEstimator(%d)", int(e))
	}
}

// Validate rejects unknown estimator values.
func (e TailEstimator) Validate() error {
	switch e {
	case EstimatorDefault, EstimatorExact, EstimatorHistogram:
		return nil
	}
	return fmt.Errorf("stats: unknown tail estimator %d", int(e))
}

// ParseTailEstimator resolves an estimator name (exact|histogram).
func ParseTailEstimator(s string) (TailEstimator, error) {
	switch s {
	case "exact":
		return EstimatorExact, nil
	case "histogram":
		return EstimatorHistogram, nil
	case "", "default":
		return EstimatorDefault, nil
	}
	return 0, fmt.Errorf("stats: unknown tail estimator %q (exact|histogram)", s)
}

// The latency histogram geometry (milliseconds): 1µs..60s with 16
// log-linear sub-buckets per octave — worst-case relative bucket width
// 1/16 = 6.25% (at the bottom of each octave; 4.4% averaged over an
// octave), ~3.3KB per histogram. 26 octaves are the fewest whose top,
// 2^26 µs ≈ 67s, reaches the 60s maximum; values at or above the maximum
// clamp into the top bucket.
const (
	tailHistMinMs     = 1e-3
	tailHistMaxMs     = 6e4
	tailHistPerOctave = 16
	tailHistBuckets   = 1 + 26*tailHistPerOctave
)

// Histogram is a fixed log-bucketed (HDR-style) latency histogram: each
// power-of-two octave between the minimum and maximum trackable latency is
// split into a fixed number of linear sub-buckets, so Add is O(1) with no
// allocation, Quantile is O(buckets), and two histograms merge by adding
// bucket counts.
//
// Invariants that make it the fleet's scalable tail estimator:
//
//   - Counts are integers, so the counts — and every quantile — depend
//     only on the multiset of values recorded, not on their order, and
//     merging is associative and commutative.
//   - The bucket boundaries are package constants (never adapted to
//     data), so any two histograms are mergeable and quantiles are
//     reproducible.
//   - Quantile returns the midpoint of the bucket containing the requested
//     rank: its relative error is bounded by the bucket resolution,
//     1/tailHistPerOctave of the value (half that in expectation).
//
// Values below the minimum (including zero — an idle window's tail) land in
// a dedicated underflow bucket whose representative value is 0; values at
// or above the maximum clamp into the top bucket. The zero Histogram is not
// usable; construct with NewTailHistogram.
type Histogram struct {
	counts []uint64
	total  uint64
}

// NewTailHistogram builds an empty Histogram. The queueing simulator and
// the fleet engine share its one geometry, so any two tail histograms in
// the system are mergeable.
func NewTailHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, tailHistBuckets)}
}

// bucket maps x to its bucket index. Index 0 is the underflow bucket
// (x below the minimum, including zero, negatives and NaN).
func (h *Histogram) bucket(x float64) int {
	if !(x >= tailHistMinMs) { // NaN-safe: NaN compares false
		return 0
	}
	if x >= tailHistMaxMs {
		return len(h.counts) - 1
	}
	// x/min = f × 2^e with f in [0.5, 1): octave e-1, linear sub-bucket
	// from the mantissa — no Log call on the hot path. The ratio is ≥ 1
	// (x ≥ min) and < max/min, so it is always a positive normal float and
	// Frexp reduces to reading the exponent field and forcing it to 2^-1 —
	// the same (f, e) Frexp returns, without its subnormal normalisation.
	b := math.Float64bits(x / tailHistMinMs)
	e := int(b>>52) - 1022
	f := math.Float64frombits(b&(1<<52-1) | 0x3fe<<52)
	sub := int((f*2 - 1) * tailHistPerOctave)
	if sub >= tailHistPerOctave { // guard the f→1 rounding edge
		sub = tailHistPerOctave - 1
	}
	i := 1 + (e-1)*tailHistPerOctave + sub
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	return i
}

// value returns the representative value of bucket i: 0 for the underflow
// bucket, otherwise the arithmetic midpoint of the bucket's bounds.
func (h *Histogram) value(i int) float64 {
	if i == 0 {
		return 0
	}
	o := (i - 1) / tailHistPerOctave
	sub := (i - 1) % tailHistPerOctave
	base := tailHistMinMs * math.Ldexp(1, o) // min × 2^o
	width := base / tailHistPerOctave
	return base + width*(float64(sub)+0.5)
}

// Add records x. O(1), allocation-free.
func (h *Histogram) Add(x float64) {
	h.counts[h.bucket(x)]++
	h.total++
}

// AddN records x n times in one bucket update — the bulk-fill path for
// analytic callers depositing a closed-form distribution's probability
// mass as integer counts (internal/queueing.Analytic), so an analytically
// filled histogram merges and quantiles exactly like a sampled one.
func (h *Histogram) AddN(x float64, n uint64) {
	if n == 0 {
		return
	}
	h.counts[h.bucket(x)] += n
	h.total += n
}

// AddAll records every value of xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.counts[h.bucket(x)]++
	}
	h.total += uint64(len(xs))
}

// NumBuckets returns the number of buckets, including the underflow
// bucket at index 0 and the clamping top bucket.
func (h *Histogram) NumBuckets() int { return len(h.counts) }

// UpperBound returns the exclusive upper edge of bucket i: the minimum
// trackable value for the underflow bucket 0, +Inf for the top bucket
// (which absorbs everything at or above the maximum). Together with the
// midpoint convention of Quantile, the edges let analytic callers evaluate
// a CDF on exactly the grid a sampled histogram would discretise to.
func (h *Histogram) UpperBound(i int) float64 {
	if i <= 0 {
		return tailHistMinMs
	}
	if i >= len(h.counts)-1 {
		return math.Inf(1)
	}
	o := (i - 1) / tailHistPerOctave
	sub := (i - 1) % tailHistPerOctave
	base := tailHistMinMs * math.Ldexp(1, o) // min × 2^o
	width := base / tailHistPerOctave
	return base + width*float64(sub+1)
}

// N returns the number of recorded observations.
func (h *Histogram) N() int { return int(h.total) }

// Reset discards all counts, keeping the bucket array for reuse.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.total = 0
}

// Merge adds o's counts into h.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
}

// Quantile returns the q-quantile (0 <= q <= 1) as the representative value
// of the bucket containing that rank: within one bucket width of the exact
// sample quantile, i.e. a relative error bounded by 1/tailHistPerOctave. Returns 0
// for an empty histogram. O(buckets).
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// The same closest-rank convention as Sample.Quantile: rank q×(n−1).
	rank := uint64(q * float64(h.total-1))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > rank {
			return h.value(i)
		}
	}
	return h.value(len(h.counts) - 1)
}

// Max returns the representative value of the highest occupied bucket
// (0 if empty).
func (h *Histogram) Max() float64 {
	for i := len(h.counts) - 1; i >= 0; i-- {
		if h.counts[i] > 0 {
			return h.value(i)
		}
	}
	return 0
}

// Resolution is the worst-case relative half-width of a quantile estimate:
// bucket width over bucket lower bound, 1/tailHistPerOctave.
func (h *Histogram) Resolution() float64 { return 1.0 / tailHistPerOctave }
