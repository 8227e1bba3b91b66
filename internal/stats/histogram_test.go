package stats

import (
	"math"
	"reflect"
	"testing"

	"stretch/internal/rng"
)

// TestHistogramQuantileMatchesSample is the accuracy property test: across
// several distributions spanning the histogram's dynamic range, every
// quantile estimate must sit within the bucket resolution of the exact
// sample quantile.
func TestHistogramQuantileMatchesSample(t *testing.T) {
	const n = 20000
	dists := map[string]func(*rng.Stream) float64{
		"lognormal-1ms":    func(s *rng.Stream) float64 { return s.LogNormal(1, 1.5) },
		"lognormal-20ms":   func(s *rng.Stream) float64 { return s.LogNormal(20, 0.5) },
		"exponential-5ms":  func(s *rng.Stream) float64 { return s.Exp(5) },
		"uniform-0-100ms":  func(s *rng.Stream) float64 { return s.Float64() * 100 },
		"bimodal-1-1000ms": func(s *rng.Stream) float64 { return 1 + 999*float64(s.Intn(2))*s.Float64() },
	}
	quantiles := []float64{0.5, 0.9, 0.95, 0.99, 0.999}
	for name, draw := range dists {
		t.Run(name, func(t *testing.T) {
			src := rng.New(42).Derive(uint64(len(name)))
			h := NewTailHistogram()
			exact := NewSample(n)
			for i := 0; i < n; i++ {
				x := draw(src)
				h.Add(x)
				exact.Add(x)
			}
			// One bucket of slack on either side of the exact value: the
			// worst case of rank-convention skew plus bucket quantisation.
			tol := 2 * h.Resolution()
			for _, q := range quantiles {
				want := exact.Quantile(q)
				got := h.Quantile(q)
				if want <= 0 {
					t.Fatalf("degenerate exact quantile %v at q=%v", want, q)
				}
				if rel := math.Abs(got-want) / want; rel > tol {
					t.Errorf("q=%v: histogram %v vs exact %v (relative error %.3f > %.3f)",
						q, got, want, rel, tol)
				}
			}
		})
	}
}

// TestHistogramMergeEqualsSequential locks Merge's sharding independence:
// splitting a stream of observations across any number of shard
// histograms and merging must reproduce the single-histogram counts
// exactly.
func TestHistogramMergeEqualsSequential(t *testing.T) {
	src := rng.New(7)
	one := NewTailHistogram()
	shards := []*Histogram{NewTailHistogram(), NewTailHistogram(), NewTailHistogram()}
	for i := 0; i < 5000; i++ {
		x := src.LogNormal(8, 1.2)
		one.Add(x)
		shards[i%len(shards)].Add(x)
	}
	merged := NewTailHistogram()
	for _, s := range shards {
		merged.Merge(s)
	}
	if !reflect.DeepEqual(one, merged) {
		t.Fatal("merged shard histograms differ from sequential accumulation")
	}
	if merged.N() != one.N() || merged.Quantile(0.99) != one.Quantile(0.99) {
		t.Fatal("merge perturbed count or quantile")
	}
}

// TestNewTailMultisetOnly locks the property the fleet engine's deposits
// rely on: for either estimator, a Tail's count and quantiles depend only
// on the multiset of values added — not on their order, nor on how they
// are batched into Add, AddN and AddAll calls. EstimatorDefault maps to
// the exact store.
func TestNewTailMultisetOnly(t *testing.T) {
	// Runs of repeated values, as a coalesced span deposits them, plus
	// idle windows' zero tails.
	src := rng.New(11)
	type run struct {
		x float64
		n uint64
	}
	runs := []run{{0, 7}}
	for i := 0; i < 300; i++ {
		runs = append(runs, run{src.LogNormal(20, 1.5), uint64(1 + src.Intn(5))})
	}
	var all []float64
	for _, r := range runs {
		for k := uint64(0); k < r.n; k++ {
			all = append(all, r.x)
		}
	}
	shuffled := append([]float64(nil), all...)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}

	if _, ok := NewTail(EstimatorDefault, 0).(*Sample); !ok {
		t.Fatal("EstimatorDefault must map to the exact Sample")
	}
	if _, ok := NewTail(EstimatorHistogram, 0).(*Histogram); !ok {
		t.Fatal("EstimatorHistogram must map to a Histogram")
	}
	for _, est := range []TailEstimator{EstimatorDefault, EstimatorExact, EstimatorHistogram} {
		t.Run(est.String(), func(t *testing.T) {
			one := NewTail(est, len(all))
			for _, x := range all {
				one.Add(x)
			}
			byRun := NewTail(est, 0)
			for i := len(runs) - 1; i >= 0; i-- {
				byRun.AddN(runs[i].x, runs[i].n)
			}
			// The bulk store is reused after a Reset, as the engine's
			// window stores are.
			bulk := NewTail(est, 0)
			bulk.AddAll(all[:10])
			bulk.Quantile(0.5)
			bulk.Reset()
			bulk.AddAll(shuffled)
			for _, tl := range []Tail{byRun, bulk} {
				if tl.N() != len(all) || one.N() != len(all) {
					t.Fatalf("N = %d and %d, want %d", one.N(), tl.N(), len(all))
				}
				for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
					if got, want := tl.Quantile(q), one.Quantile(q); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("q=%v: %v, want %v", q, got, want)
					}
				}
			}
		})
	}
}

func TestHistogramResetReuses(t *testing.T) {
	h := NewTailHistogram()
	h.Add(5)
	h.Add(50)
	if h.N() != 2 {
		t.Fatalf("N = %d", h.N())
	}
	h.Reset()
	if h.N() != 0 || h.Quantile(0.99) != 0 {
		t.Fatal("Reset left residual state")
	}
	h.Add(5)
	fresh := NewTailHistogram()
	fresh.Add(5)
	if !reflect.DeepEqual(h, fresh) {
		t.Fatal("reused histogram differs from a fresh one")
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	h := NewTailHistogram()
	if h.Quantile(0.99) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report 0")
	}
	// Zero and sub-minimum values land in the underflow bucket and report 0
	// — the exact estimator's convention for idle windows.
	h.Add(0)
	h.Add(-3)
	h.Add(math.NaN())
	if got := h.Quantile(1); got != 0 {
		t.Fatalf("underflow quantile = %v, want 0", got)
	}
	// Values at or beyond the maximum clamp into the top bucket.
	h.Reset()
	h.Add(1e9)
	h.Add(math.Inf(1))
	if got := h.Quantile(0.5); got < tailHistMaxMs/2 {
		t.Fatalf("overflow quantile = %v, want clamped near max", got)
	}
	if h.N() != 2 {
		t.Fatalf("N = %d", h.N())
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	src := rng.New(3)
	h := NewTailHistogram()
	for i := 0; i < 3000; i++ {
		h.Add(src.Exp(12))
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < Quantile at lower q (%v)", q, v, prev)
		}
		prev = v
	}
}

// TestHistogramBucketCount: the bucket array spans the fewest whole
// octaves from the minimum that reach the maximum, plus the underflow
// bucket.
func TestHistogramBucketCount(t *testing.T) {
	octaves := int(math.Ceil(math.Log2(tailHistMaxMs / tailHistMinMs)))
	if want := 1 + octaves*tailHistPerOctave; NewTailHistogram().NumBuckets() != want {
		t.Fatalf("%d buckets, want %d", NewTailHistogram().NumBuckets(), want)
	}
}

// BenchmarkHistogramAdd measures the O(1) hot-path record.
func BenchmarkHistogramAdd(b *testing.B) {
	h := NewTailHistogram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(float64(i%1000) + 0.5)
	}
}

// BenchmarkHistogramQuantile measures the O(buckets) query.
func BenchmarkHistogramQuantile(b *testing.B) {
	h := NewTailHistogram()
	src := rng.New(1)
	for i := 0; i < 4096; i++ {
		h.Add(src.LogNormal(10, 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quantile(0.99)
	}
}

// BenchmarkSampleQuantile is the exact-estimator counterpart: append the
// same population and select its quantile per query cycle.
func BenchmarkSampleQuantile(b *testing.B) {
	src := rng.New(1)
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = src.LogNormal(10, 1)
	}
	s := NewSample(len(xs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		for _, x := range xs {
			s.Add(x)
		}
		s.Quantile(0.99)
	}
}
