package stats

import (
	"math"
	"reflect"
	"testing"

	"stretch/internal/rng"
)

// FuzzHistogram throws arbitrary (seed, scale, shape, count) populations at
// the log-bucketed histogram and checks its structural invariants: counts
// conserved, quantiles monotone and inside the covered range, merge
// equivalent to sequential accumulation, and Reset restoring a fresh state.
// The same population goes into an exact Sample, whose quantiles must
// equal the sort-based reference's bits, before and after one more Add.
func FuzzHistogram(f *testing.F) {
	f.Add(uint64(1), 10.0, 1.0, uint16(100))
	f.Add(uint64(2), 0.0005, 2.0, uint16(1000))
	f.Add(uint64(3), 1e6, 0.1, uint16(17))
	f.Add(uint64(42), 1.0, 0.0, uint16(1))
	f.Fuzz(func(t *testing.T, seed uint64, scale, shape float64, n uint16) {
		if !(scale > 0) || math.IsInf(scale, 0) || !(shape >= 0) || math.IsInf(shape, 0) || n == 0 {
			t.Skip()
		}
		src := rng.New(seed)
		h := NewTailHistogram()
		a, b := NewTailHistogram(), NewTailHistogram()
		xs := make([]float64, 0, int(n)+1)
		for i := 0; i < int(n); i++ {
			x := src.LogNormal(scale, shape)
			xs = append(xs, x)
			h.Add(x)
			if i%2 == 0 {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		exact := NewSample(0)
		exact.AddAll(xs)
		checkAgainstSorted(t, "fuzz", exact, xs)
		exact.Add(xs[0])
		checkAgainstSorted(t, "fuzz after Add", exact, append(xs, xs[0]))
		if h.N() != int(n) {
			t.Fatalf("N = %d after %d adds", h.N(), n)
		}
		a.Merge(b)
		if !reflect.DeepEqual(h, a) {
			t.Fatal("merge of even/odd shards differs from sequential accumulation")
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			v := h.Quantile(q)
			if math.IsNaN(v) || v < 0 {
				t.Fatalf("Quantile(%v) = %v", q, v)
			}
			if v < prev {
				t.Fatalf("Quantile(%v) = %v not monotone (prev %v)", q, v, prev)
			}
			prev = v
		}
		if mx := h.Max(); h.Quantile(1) > mx {
			t.Fatalf("Quantile(1) = %v above Max %v", h.Quantile(1), mx)
		}
		h.Reset()
		if h.N() != 0 || h.Quantile(0.5) != 0 {
			t.Fatal("Reset left residual state")
		}
	})
}
