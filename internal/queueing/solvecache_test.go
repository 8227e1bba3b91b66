package queueing

import (
	"math"
	"testing"
)

func TestTailCacheRoundTrip(t *testing.T) {
	c := NewTailCache(1024)
	k := TailKey{Service: 3, Rate: math.Float64bits(120.5), Perf: math.Float64bits(0.93)}
	if _, ok := c.Lookup(k); ok {
		t.Fatal("lookup hit on empty cache")
	}
	if !c.Insert(k, 7.25) {
		t.Fatal("first insert not reported as new")
	}
	if c.Insert(k, 7.25) {
		t.Fatal("second insert of same key reported as new")
	}
	v, ok := c.Lookup(k)
	if !ok || v != 7.25 {
		t.Fatalf("lookup = (%v, %v), want (7.25, true)", v, ok)
	}
}

func TestTailCacheStoresNaNRefusals(t *testing.T) {
	c := NewTailCache(64)
	k := TailKey{Service: 1, Rate: 42, Perf: 42}
	c.Insert(k, math.NaN())
	v, ok := c.Lookup(k)
	if !ok || !math.IsNaN(v) {
		t.Fatalf("cached refusal lookup = (%v, %v), want (NaN, true)", v, ok)
	}
}

// TestTailCacheHotKeySurvivesEvictionStorm is the regression test for the
// old wholesale-clear eviction: a key that keeps being looked up must stay
// resident while a storm of cold keys (far exceeding total capacity)
// churns through the cache. The generational scheme guarantees this as
// long as the hot key is touched at least once per rotation; the storm
// below re-touches it every few inserts, well inside that bound.
//
// It first walks one rotation by hand to pin the two rules the storm
// relies on: a key living only in the previous generation is not new to
// Insert, and Lookup promotes it so it outlives the next rotation.
func TestTailCacheHotKeySurvivesEvictionStorm(t *testing.T) {
	const capacity = 1024
	c := NewTailCache(capacity)
	hot := TailKey{Service: 0, Rate: math.Float64bits(500.0), Perf: math.Float64bits(1.0)}
	filler := func(i int) TailKey { return TailKey{Service: 8, Rate: uint64(i), Perf: uint64(i)} }
	c.Insert(hot, 3.5)
	// hot plus capacity-1 fillers fill the current generation; the next
	// filler rotates it, leaving hot and fillers 0..capacity-2 in the
	// previous generation only.
	for i := 0; i < capacity; i++ {
		c.Insert(filler(i), float64(i))
	}
	if c.Insert(hot, 3.5) {
		t.Fatal("insert of a previous-generation key reported as new")
	}
	if v, ok := c.Lookup(filler(0)); !ok || v != 0 {
		t.Fatalf("previous-generation lookup = (%v, %v), want (0, true)", v, ok)
	}
	// The current generation now holds filler capacity-1, hot and filler
	// 0; fill it and rotate once more. Promoted keys survive, the rest of
	// the old previous generation is gone.
	for i := capacity; i < 2*capacity-2; i++ {
		c.Insert(filler(i), float64(i))
	}
	for _, k := range []TailKey{hot, filler(0)} {
		if _, ok := c.Lookup(k); !ok {
			t.Fatalf("promoted key %v lost after the next rotation", k)
		}
	}
	if _, ok := c.Lookup(filler(1)); ok {
		t.Fatal("unpromoted key outlived two rotations")
	}
	for i := 0; i < 50*capacity; i++ {
		c.Insert(TailKey{Service: 9, Rate: uint64(i), Perf: uint64(i * 3)}, float64(i))
		if i%4 == 0 {
			if _, ok := c.Lookup(hot); !ok {
				t.Fatalf("hot key evicted after %d cold inserts", i+1)
			}
		}
	}
	if v, ok := c.Lookup(hot); !ok || v != 3.5 {
		t.Fatalf("after storm: lookup = (%v, %v), want (3.5, true)", v, ok)
	}
}

// A cold key, inserted once and never touched again, must eventually age
// out — the cache is bounded, not append-only.
func TestTailCacheColdKeyAgesOut(t *testing.T) {
	const capacity = 256
	c := NewTailCache(capacity)
	cold := TailKey{Service: 2, Rate: 11, Perf: 13}
	c.Insert(cold, 1.0)
	for i := 0; i < 50*capacity; i++ {
		c.Insert(TailKey{Service: 9, Rate: uint64(i), Perf: uint64(i * 7)}, float64(i))
	}
	if _, ok := c.Lookup(cold); ok {
		t.Fatal("cold key still resident after 50x-capacity churn")
	}
	// Re-solving an evicted key recounts it (Result.AnalyticSolves
	// documents this).
	if !c.Insert(cold, 1.0) {
		t.Fatal("re-insert of an evicted key not reported as new")
	}
}

// BenchmarkTailCache prices the two cache operations the fleet engine
// pays per steady core-window span: a hit (the common case once a rate
// plateau is solved) and a miss followed by the first insert of a fresh
// key, including the amortised generation rotation at the engine's
// capacity. The solve a miss triggers is BenchmarkAnalyticTail.
func BenchmarkTailCache(b *testing.B) {
	const capacity = 1 << 16
	b.Run("hit", func(b *testing.B) {
		const keys = 256
		c := NewTailCache(capacity)
		ks := make([]TailKey, keys)
		for i := range ks {
			ks[i] = TailKey{Service: int32(i % 4), Rate: math.Float64bits(100 + float64(i)), Perf: math.Float64bits(1)}
			c.Insert(ks[i], float64(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := c.Lookup(ks[i%keys]); !ok {
				b.Fatal("miss on a resident key")
			}
		}
	})
	b.Run("miss-insert", func(b *testing.B) {
		c := NewTailCache(capacity)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := TailKey{Service: 1, Rate: math.Float64bits(float64(i)), Perf: math.Float64bits(1)}
			if _, ok := c.Lookup(k); ok {
				b.Fatal("hit on a fresh key")
			}
			if !c.Insert(k, float64(i)) {
				b.Fatal("first insert not reported as new")
			}
		}
	})
}
