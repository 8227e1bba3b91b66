package rng

import "math"

// Normal and exponential variates come from the ziggurat method (Marsaglia
// & Tsang, "The Ziggurat Method for Generating Random Variables", J. Stat.
// Softw. 5(8), 2000): the density is covered by equal-area layers, and a
// draw picks a layer and a position in it from one Uint64 — the layer
// from bits 32 and up, the position (and, for the normal, the sign) from
// the low 32 bits. More than 98% of draws land inside their layer's
// rectangle and return after one table lookup. The rest fall back to an
// exact rejection test against the density in the layer's wedge, or, in
// the base layer, to an exact sampler of the tail beyond r.
//
// The tables use the 32-bit layout of math/rand/v2 and are built by the
// paper's construction from its constants, which reproduces that
// package's tables exactly; with the fallbacks drawing their uniforms the
// way it does (unitLow), Normal and Exp return exactly what
// rand.New(s).NormFloat64 and ExpFloat64 would on the same stream.
const (
	zigNormR = 3.442619855899      // where the normal's tail begins
	zigNormV = 9.91256303526217e-3 // area of each normal layer
	zigExpR  = 7.69711747013104972 // where the exponential's tail begins
	zigExpV  = 3.949659822581572e-3
)

// Per layer i: k is the acceptance threshold on the position bits (a draw
// with |j| < k[i] lies inside the rectangle), w scales the position bits
// to the variate, and f is the density at the layer's outer edge.
var (
	kn     [128]uint32
	wn, fn [128]float32
	ke     [256]uint32
	we, fe [256]float32
)

func init() {
	const m1, m2 = 1 << 31, 1 << 32 // position ranges: signed and unsigned 32-bit
	dn := zigNormR
	tn := dn
	q := zigNormV / math.Exp(-.5*dn*dn)
	kn[0] = uint32(dn / q * m1)
	wn[0] = float32(q / m1)
	wn[127] = float32(dn / m1)
	fn[0] = 1
	fn[127] = float32(math.Exp(-.5 * dn * dn))
	for i := 126; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(zigNormV/dn+math.Exp(-.5*dn*dn)))
		kn[i+1] = uint32(dn / tn * m1)
		tn = dn
		fn[i] = float32(math.Exp(-.5 * dn * dn))
		wn[i] = float32(dn / m1)
	}

	de := zigExpR
	te := de
	q = zigExpV / math.Exp(-de)
	ke[0] = uint32(de / q * m2)
	we[0] = float32(q / m2)
	we[255] = float32(de / m2)
	fe[0] = 1
	fe[255] = float32(math.Exp(-de))
	for i := 254; i >= 1; i-- {
		de = -math.Log(zigExpV/de + math.Exp(-de))
		ke[i+1] = uint32(de / te * m2)
		te = de
		fe[i] = float32(math.Exp(-de))
		we[i] = float32(de / m2)
	}
}

// Normal returns a standard normal variate.
func (s *Stream) Normal() float64 {
	for {
		u := s.Uint64()
		j := int32(u) // position and sign
		i := u >> 32 & 0x7f
		x := float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			return x
		}
		if i == 0 {
			// The tail beyond r, by Marsaglia's exact method.
			for {
				x = -math.Log(s.unitLow()) * (1.0 / zigNormR)
				y := -math.Log(s.unitLow())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return zigNormR + x
			}
			return -zigNormR - x
		}
		if fn[i]+float32(s.unitLow())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
	}
}

// exp1 returns a standard (mean 1) exponential variate. The tail beyond r
// is r plus a fresh exponential, drawn by inversion.
func (s *Stream) exp1() float64 {
	for {
		u := s.Uint64()
		j := uint32(u)
		i := uint8(u >> 32)
		x := float64(j) * float64(we[i])
		if j < ke[i] {
			return x
		}
		if i == 0 {
			return zigExpR - math.Log(s.unitLow())
		}
		if fe[i]+float32(s.unitLow())*(fe[i-1]-fe[i]) < float32(math.Exp(-x)) {
			return x
		}
	}
}

// unitLow returns a uniform float64 in [0, 1) from the low 53 bits of the
// next draw, as math/rand/v2 makes its uniforms (Float64 uses the high
// bits). Only the ziggurat fallbacks use it.
func (s *Stream) unitLow() float64 {
	return float64(s.Uint64()<<11>>11) / (1 << 53)
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}
