package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"stretch/internal/rng"
)

func TestRunningAgainstDirect(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if math.Abs(r.Mean()-mean) > 1e-12 {
		t.Fatalf("mean = %v, want %v", r.Mean(), mean)
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	wantVar := ss / float64(len(xs)-1)
	if math.Abs(r.Variance()-wantVar) > 1e-9 {
		t.Fatalf("variance = %v, want %v", r.Variance(), wantVar)
	}
	if r.Min() != 1 || r.Max() != 9 || r.N() != len(xs) {
		t.Fatalf("min/max/n = %v/%v/%v", r.Min(), r.Max(), r.N())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.StdDev() != 0 {
		t.Fatal("zero-value Running should report zeros")
	}
}

func TestSampleQuantiles(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.99, 99.01},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 0.5 {
			t.Errorf("Quantile(%v) = %v, want ~%v", c.q, got, c.want)
		}
	}
	if s.N() != 100 {
		t.Fatalf("N = %d", s.N())
	}
}

func TestSampleEmptyAndInterleaved(t *testing.T) {
	s := NewSample(4)
	if s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("empty sample should report zeros")
	}
	s.Add(10)
	if s.Quantile(0.5) != 10 {
		t.Fatal("single-element quantile")
	}
	s.Add(20) // an add after a quantile call must be seen
	if got := s.Quantile(1); got != 20 {
		t.Fatalf("max after interleaved add = %v", got)
	}
}

// TestSampleReset pins the buffer-reuse contract the fleet hot loop and
// queueing.Simulator rely on: after Reset a Sample behaves exactly like a
// fresh one (including the NaN-safe zero quantiles of an empty sample)
// without reallocating.
func TestSampleReset(t *testing.T) {
	s := NewSample(8)
	for i := 0; i < 8; i++ {
		s.Add(float64(i))
	}
	if s.Quantile(1) != 7 {
		t.Fatal("pre-reset quantile wrong")
	}
	s.Reset()
	if s.N() != 0 || s.Quantile(0.99) != 0 || s.Mean() != 0 {
		t.Fatalf("reset sample not empty: n=%d q=%v", s.N(), s.Quantile(0.99))
	}
	s.Add(3)
	s.Add(1)
	if s.Quantile(0.5) != 2 || s.N() != 2 {
		t.Fatalf("post-reset stats wrong: %v over %d", s.Quantile(0.5), s.N())
	}
}

// sortedQuantile is the sort-based quantile Sample.Quantile must equal:
// sort a copy, then interpolate between the closest ranks.
func sortedQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	if q <= 0 {
		return ys[0]
	}
	if q >= 1 {
		return ys[len(ys)-1]
	}
	pos := q * float64(len(ys)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	if lo == hi {
		return ys[lo]
	}
	frac := pos - float64(lo)
	return ys[lo]*(1-frac) + ys[hi]*frac
}

// sameFloat reports bit-identical values, counting any two NaNs as equal.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// quantileProbes are the quantiles every Sample check asks for, out-of-range
// ones included.
var quantileProbes = []float64{-0.5, 0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999, 1, 1.5}

// checkAgainstSorted asks s for every probe quantile, twice over, and
// compares each answer with the sort-based reference over want.
func checkAgainstSorted(t *testing.T, name string, s *Sample, want []float64) {
	t.Helper()
	for round := 0; round < 2; round++ {
		for _, q := range quantileProbes {
			if got, ref := s.Quantile(q), sortedQuantile(want, q); !sameFloat(got, ref) {
				t.Fatalf("%s n=%d round %d: Quantile(%v) = %v, sorted reference %v", name, len(want), round, q, got, ref)
			}
		}
	}
}

// TestSampleQuantileMatchesSorted: selection answers every quantile with the
// bits a full sort gives, over random values, heavy duplicates, NaN and
// ±Inf, and tiny samples, with repeated queries and an Add after a query.
func TestSampleQuantileMatchesSorted(t *testing.T) {
	src := rng.New(5)
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1}
	for trial := 0; trial < 300; trial++ {
		n := 1 + trial%3
		if trial >= 30 {
			n = 1 + src.Intn(500)
		}
		var xs []float64
		for i := 0; i < n; i++ {
			switch k := trial % 5; {
			case k == 1: // heavy duplicates
				xs = append(xs, float64(src.Intn(4)))
			case k == 2 && src.Intn(8) == 0: // sprinkled specials
				xs = append(xs, special[src.Intn(len(special))])
			default:
				xs = append(xs, src.LogNormal(10, 1.5)-5)
			}
		}
		s := NewSample(0)
		s.AddAll(xs)
		checkAgainstSorted(t, "random", s, xs)
		x := special[trial%len(special)]
		s.Add(x)
		checkAgainstSorted(t, "after Add", s, append(xs, x))
	}
}

// TestSampleQuantileLargeOrderedInputs: sorted, reversed, all-equal and
// organ-pipe inputs of 10⁵ values, the patterns that drive a naive
// quickselect quadratic, answer exactly and, all eleven probes of all four
// together, in well under a second (tens of milliseconds on two vCPUs, a
// few hundred under -race; quadratic selection takes seconds).
func TestSampleQuantileLargeOrderedInputs(t *testing.T) {
	const n = 100000
	patterns := map[string]func(i int) float64{
		"sorted":     func(i int) float64 { return float64(i) },
		"reversed":   func(i int) float64 { return float64(n - i) },
		"all-equal":  func(int) float64 { return 3 },
		"organ-pipe": func(i int) float64 { return float64(min(i, n-i)) },
	}
	var took time.Duration
	for name, f := range patterns {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		s := NewSample(n)
		s.AddAll(xs)
		got := make([]float64, len(quantileProbes))
		start := time.Now()
		for i, q := range quantileProbes {
			got[i] = s.Quantile(q)
		}
		took += time.Since(start)
		for i, q := range quantileProbes {
			if ref := sortedQuantile(xs, q); !sameFloat(got[i], ref) {
				t.Fatalf("%s: Quantile(%v) = %v, sorted reference %v", name, q, got[i], ref)
			}
		}
	}
	if took > time.Second {
		t.Fatalf("%d quantiles of four 10⁵-value inputs took %v", len(quantileProbes), took)
	}
}

func TestQuantileOrderingProperty(t *testing.T) {
	if err := quick.Check(func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Sample{xs: append([]float64(nil), clean...)}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := s.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeOrdering(t *testing.T) {
	v := Summarize([]float64{5, 1, 9, 3, 7})
	if !(v.Min <= v.Q1 && v.Q1 <= v.Median && v.Median <= v.Q3 && v.Q3 <= v.Max) {
		t.Fatalf("violin not ordered: %+v", v)
	}
	if v.N != 5 || v.Min != 1 || v.Max != 9 || v.Median != 5 {
		t.Fatalf("violin fields wrong: %+v", v)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summarize should be zero")
	}
	if v.String() == "" {
		t.Fatal("violin String empty")
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if !sort.Float64sAreSorted(xs[:0]) && (xs[0] != 3 || xs[1] != 1 || xs[2] != 2) {
		t.Fatalf("Summarize mutated input: %v", xs)
	}
}

func TestAggregates(t *testing.T) {
	xs := []float64{1, 2, 4}
	if m := Mean(xs); math.Abs(m-7.0/3) > 1e-12 {
		t.Fatalf("Mean = %v", m)
	}
	if m := Max(xs); m != 4 {
		t.Fatalf("Max = %v", m)
	}
	if m := Min(xs); m != 1 {
		t.Fatalf("Min = %v", m)
	}
	if Mean(nil) != 0 || Max(nil) != 0 || Min(nil) != 0 {
		t.Fatal("empty aggregates should be 0")
	}
}

func TestJainFairness(t *testing.T) {
	if j := Jain([]float64{1, 1, 1, 1}); math.Abs(j-1) > 1e-12 {
		t.Fatalf("equal shares: %v, want 1", j)
	}
	// One dominant value drives the index toward 1/n.
	if j := Jain([]float64{1, 0, 0, 0}); math.Abs(j-0.25) > 1e-12 {
		t.Fatalf("single dominant share: %v, want 0.25", j)
	}
	// Known hand value: (1+2+3)² / (3·(1+4+9)) = 36/42.
	if j := Jain([]float64{1, 2, 3}); math.Abs(j-36.0/42) > 1e-12 {
		t.Fatalf("mixed shares: %v, want %v", j, 36.0/42)
	}
	// Scale invariance.
	if a, b := Jain([]float64{1, 2, 3}), Jain([]float64{10, 20, 30}); math.Abs(a-b) > 1e-12 {
		t.Fatalf("not scale invariant: %v vs %v", a, b)
	}
	if Jain(nil) != 0 || Jain([]float64{0, 0}) != 0 {
		t.Fatal("degenerate inputs should be 0")
	}
}
