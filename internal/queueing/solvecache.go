// Analytic solve cache: one bounded, two-generation map owned by the fleet
// engine's goroutine. The solver is a pure function of its key, so a
// cached answer is the same float the solve would have produced.
//
// Eviction is generational rather than a wholesale clear: when the current
// generation fills, it becomes the previous generation and a fresh map
// takes over; a hit in the previous generation promotes the entry back
// into the current one. A hot key that keeps being looked up therefore
// survives any number of eviction storms (pathological per-core rate
// diversity, e.g. p2c routing), while cold keys age out two generations
// after they stop being touched.
package queueing

// TailKey identifies one solved steady state: a caller-scoped service
// index plus the exact bit patterns of the arrival rate and perf factor.
// Keying by bits (not float values) is what makes cache hits reproduce the
// solver bit-for-bit.
type TailKey struct {
	Service    int32
	Rate, Perf uint64
}

// TailCache is a bounded solve cache. It is not safe for concurrent use:
// one goroutine owns it. The zero value is not usable; build one with
// NewTailCache.
type TailCache struct {
	limit     int
	cur, prev map[TailKey]float64
}

// NewTailCache builds a cache that rotates generations at capacity
// entries and holds at most two generations, so the hard ceiling is
// 2× capacity. The maps grow on demand: a capacity-sized map would cost
// megabytes per run, and no ordinary run fills a generation.
func NewTailCache(capacity int) *TailCache {
	return &TailCache{limit: max(capacity, 1), cur: make(map[TailKey]float64)}
}

// Lookup returns the cached solve for k. A hit in the previous generation
// is promoted into the current one, which is what keeps hot keys resident
// across rotations.
func (c *TailCache) Lookup(k TailKey) (float64, bool) {
	if v, ok := c.cur[k]; ok {
		return v, true
	}
	if v, ok := c.prev[k]; ok {
		c.put(k, v)
		return v, true
	}
	return 0, false
}

// Insert records a solve for k and reports whether the key was previously
// unknown to the cache (absent from both generations). A key evicted by
// two rotations counts as new again.
func (c *TailCache) Insert(k TailKey, v float64) bool {
	if _, ok := c.cur[k]; ok {
		return false
	}
	_, stale := c.prev[k]
	c.put(k, v)
	return !stale
}

// put adds k to the current generation, rotating generations first when
// the current one is full.
func (c *TailCache) put(k TailKey, v float64) {
	if len(c.cur) >= c.limit {
		c.prev, c.cur = c.cur, make(map[TailKey]float64)
	}
	c.cur[k] = v
}
