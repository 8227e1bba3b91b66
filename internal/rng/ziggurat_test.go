package rng

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

const zigDraws = 1_000_000

// draws returns n variates from f, sorted.
func draws(n int, f func() float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f()
	}
	slices.Sort(xs)
	return xs
}

// ksStat is the Kolmogorov–Smirnov distance between the sorted sample xs
// and the CDF cdf.
func ksStat(xs []float64, cdf func(float64) float64) float64 {
	n := float64(len(xs))
	d := 0.0
	for i, x := range xs {
		f := cdf(x)
		d = math.Max(d, math.Max(f-float64(i)/n, float64(i+1)/n-f))
	}
	return d
}

func normalCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// TestZigguratKS: a million draws of each sampler sit within the
// Kolmogorov–Smirnov critical distance of their distribution at
// α = 0.001 (1.95/√n), against Φ and 1 − e⁻ˣ.
func TestZigguratKS(t *testing.T) {
	crit := 1.95 / math.Sqrt(zigDraws)
	s := New(21)
	if d := ksStat(draws(zigDraws, s.Normal), normalCDF); d > crit {
		t.Errorf("Normal: KS distance %.5f > %.5f", d, crit)
	}
	s = New(22)
	if d := ksStat(draws(zigDraws, func() float64 { return s.Exp(1) }), func(x float64) float64 { return -math.Expm1(-x) }); d > crit {
		t.Errorf("Exp: KS distance %.5f > %.5f", d, crit)
	}
}

// TestZigguratTail: the mass beyond the base strip's edge r, which only
// the exact tail fallbacks produce, matches the distribution's (within
// five standard deviations of the binomial count), and so does the tail's
// mean excess over r (within five standard errors). Ten million draws
// put several thousand in each tail.
func TestZigguratTail(t *testing.T) {
	const n = 10 * zigDraws
	check := func(name string, f func() float64, r, p, wantExcess float64) {
		t.Helper()
		var excess welford
		for i := 0; i < n; i++ {
			if x := math.Abs(f()); x > r {
				excess.add(x - r)
			}
		}
		mean := p * n
		if sd := math.Sqrt(mean * (1 - p)); math.Abs(float64(excess.n)-mean) > 5*sd {
			t.Errorf("%s: %d draws beyond r, want %.0f ± %.0f", name, excess.n, mean, 5*sd)
		}
		if se := excess.sd() / math.Sqrt(float64(excess.n)); math.Abs(excess.mean-wantExcess) > 5*se {
			t.Errorf("%s: mean excess beyond r %.4f, want %.4f ± %.4f", name, excess.mean, wantExcess, 5*se)
		}
	}
	s := New(31)
	pn := math.Erfc(zigNormR / math.Sqrt2) // both tails
	phi := math.Exp(-zigNormR*zigNormR/2) / math.Sqrt(2*math.Pi)
	check("Normal", s.Normal, zigNormR, pn, phi/(pn/2)-zigNormR)
	s = New(32)
	check("Exp", func() float64 { return s.Exp(1) }, zigExpR, math.Exp(-zigExpR), 1)
}

// welford accumulates the tail test's mean and variance.
type welford struct {
	n        int
	mean, m2 float64
}

func (r *welford) add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

func (r *welford) sd() float64 { return math.Sqrt(r.m2 / float64(r.n-1)) }

// TestZigguratSignIndependentOfLayer: the normal's sign (bit 31 of the
// draw) and its layer (bits 32–38) come from disjoint bits, so the sign
// is independent of |x|. A χ² test of sign against twenty equiprobable
// bins of |x| has 19 degrees of freedom; 43.8 is its 0.001 critical
// value.
func TestZigguratSignIndependentOfLayer(t *testing.T) {
	const bins = 20
	// Bin edges: quantiles of |X|, the half-normal.
	edges := make([]float64, bins-1)
	for k := range edges {
		p := float64(k+1) / bins
		lo, hi := 0.0, 10.0
		for i := 0; i < 60; i++ {
			mid := (lo + hi) / 2
			if math.Erf(mid/math.Sqrt2) < p {
				lo = mid
			} else {
				hi = mid
			}
		}
		edges[k] = lo
	}
	var counts [2][bins]float64
	s := New(41)
	for i := 0; i < zigDraws; i++ {
		x := s.Normal()
		sign := 0
		if x < 0 {
			sign = 1
		}
		b, _ := slices.BinarySearch(edges, math.Abs(x))
		counts[sign][b]++
	}
	var rows [2]float64
	var cols [bins]float64
	for r := range counts {
		for c, v := range counts[r] {
			rows[r] += v
			cols[c] += v
		}
	}
	chi2 := 0.0
	for r := range counts {
		for c, v := range counts[r] {
			e := rows[r] * cols[c] / zigDraws
			chi2 += (v - e) * (v - e) / e
		}
	}
	if chi2 > 43.8 {
		t.Errorf("sign against |x| bins: χ² = %.1f > 43.8 (19 dof, α = 0.001)", chi2)
	}
}

// TestZigguratMatchesMathRandV2: the port keeps math/rand/v2's tables and
// fallbacks, so on the same stream (a *Stream is a rand.Source) every
// variate is bit-identical and both sides consume the same draws.
func TestZigguratMatchesMathRandV2(t *testing.T) {
	a, b := New(51), New(51)
	r := rand.New(b)
	for i := 0; i < zigDraws; i++ {
		if x, y := a.Normal(), r.NormFloat64(); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("draw %d: Normal %v, NormFloat64 %v", i, x, y)
		}
		if x, y := a.Exp(1), r.ExpFloat64(); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("draw %d: Exp %v, ExpFloat64 %v", i, x, y)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("the samplers consumed a different number of draws than math/rand/v2")
	}
}

var sink float64

// BenchmarkNormal and BenchmarkExp time the samplers: one op is one draw,
// so ns/op is the cost per draw.
func BenchmarkNormal(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		sink += s.Normal()
	}
}

func BenchmarkExp(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		sink += s.Exp(1)
	}
}
