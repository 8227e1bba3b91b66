// Package stats provides the small statistical toolkit used throughout the
// simulator: running moments (Running), exact percentiles over bounded
// samples (Sample), mergeable log-bucketed tail-latency histograms of one
// fixed geometry (Histogram) and the five-number "violin" summaries the
// paper's figures report. Sample and Histogram are the two Tail stores, and NewTail maps a
// TailEstimator to one of them.
//
// Invariants: every estimator here is deterministic — identical inputs in
// identical order produce bit-identical outputs — and both Tail stores'
// quantiles are additionally order-independent: Sample answers one with
// order statistics, which depend only on the multiset of its values, and
// Histogram keeps integer bucket counts. So the fleet engine may deposit a
// window's coalesced spans and its discrete residue in separate passes,
// not in core order, without changing a bit.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Running accumulates streaming mean/variance/min/max without retaining
// samples (Welford's algorithm). The zero value is ready to use.
type Running struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add incorporates x.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of samples added.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean (0 for no samples).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the sample variance (0 for fewer than two samples).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest sample (0 for no samples).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest sample (0 for no samples).
func (r *Running) Max() float64 { return r.max }

// Sample retains every observation for exact quantile computation. Use for
// the experiment-scale data sets (at most a few million points).
type Sample struct {
	xs []float64
}

// NewSample returns a Sample with capacity hint n.
func NewSample(n int) *Sample {
	return &Sample{xs: make([]float64, 0, n)}
}

// Add appends x.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
}

// AddN appends n copies of x.
func (s *Sample) AddN(x float64, n uint64) {
	for ; n > 0; n-- {
		s.xs = append(s.xs, x)
	}
}

// AddAll appends every value of xs.
func (s *Sample) AddAll(xs []float64) {
	s.xs = append(s.xs, xs...)
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Reset discards all observations while keeping the underlying buffer, so
// hot loops can reuse one Sample across windows without reallocating.
func (s *Sample) Reset() {
	s.xs = s.xs[:0]
}

// Mean returns the sample mean.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between closest ranks. Returns 0 for an empty sample. It selects the two
// order statistics it needs instead of sorting, reordering the
// observations in place; NaN orders first, as in sort.Float64s.
func (s *Sample) Quantile(q float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	switch {
	case q <= 0:
		pos = 0
	case q >= 1:
		pos = float64(n - 1)
	}
	lo := int(math.Floor(pos))
	selectRank(s.xs, lo)
	if float64(lo) == pos {
		return s.xs[lo]
	}
	// The next order statistic is the least value right of rank lo.
	hi := s.xs[lo+1]
	for _, x := range s.xs[lo+2:] {
		if cmp.Less(x, hi) {
			hi = x
		}
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + hi*frac
}

// selectRank reorders xs so that xs[k] holds the value a sort would put
// there, no value before it orders after it and none after it orders
// before it. It is Hoare's quickselect with the middle element as pivot;
// after 2·log₂n rounds it sorts what is left of the range, so adversarial
// inputs cost O(n log n), not O(n²).
func selectRank(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for rounds := 2 * bits.Len(uint(len(xs))); lo < hi; rounds-- {
		if rounds == 0 {
			slices.Sort(xs[lo : hi+1])
			return
		}
		pivot := xs[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for cmp.Less(xs[i], pivot) {
				i++
			}
			for cmp.Less(pivot, xs[j]) {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// xs[lo..j] order at or before the pivot, xs[i..hi] at or after
		// it, and anything between equals it.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// Max returns the largest observation (0 if empty).
func (s *Sample) Max() float64 { return s.Quantile(1) }

// Min returns the smallest observation (0 if empty).
func (s *Sample) Min() float64 { return s.Quantile(0) }

// Violin is the distribution summary the paper draws as violin plots:
// min, lower quartile, median, upper quartile, max, and mean.
type Violin struct {
	Min, Q1, Median, Q3, Max, Mean float64
	N                              int
}

// Summarize computes a Violin over xs. An empty input yields a zero Violin.
func Summarize(xs []float64) Violin {
	if len(xs) == 0 {
		return Violin{}
	}
	s := Sample{xs: append([]float64(nil), xs...)}
	return Violin{
		Min:    s.Quantile(0),
		Q1:     s.Quantile(0.25),
		Median: s.Quantile(0.5),
		Q3:     s.Quantile(0.75),
		Max:    s.Quantile(1),
		Mean:   s.Mean(),
		N:      s.N(),
	}
}

// String renders the summary in a compact fixed-point percent-friendly form.
func (v Violin) String() string {
	return fmt.Sprintf("min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f mean=%.3f n=%d",
		v.Min, v.Q1, v.Median, v.Q3, v.Max, v.Mean, v.N)
}

// Mean returns the arithmetic mean of xs (0 if empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum of xs (0 if empty).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs (0 if empty).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Jain returns the Jain fairness index of xs: (Σx)² / (n·Σx²) — 1 when
// every value is equal and positive, approaching 1/n when one value
// dominates. Empty or all-zero inputs return 0: no allocation to be fair
// about.
func Jain(xs []float64) float64 {
	sum, sumsq := 0.0, 0.0
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}
