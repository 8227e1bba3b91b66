package core

import (
	"fmt"

	"stretch/internal/branch"
	"stretch/internal/cache"
	"stretch/internal/isa"
)

// Stream supplies a thread's µop trace in program order.
type Stream interface {
	Next() isa.MicroOp
}

const (
	histSize   = 512 // completion-time ring; must exceed max dep distance
	maxDepDist = 255
	fuRingSize = 1 << 16 // FU reservation horizon in cycles
	fillSlots  = 16      // in-flight prefetch fills tracked per L1-D

	// prefetchDegree is how many strides ahead the L1-D prefetcher
	// targets; 4 puts a 16-byte-stride stream one full line ahead.
	prefetchDegree = 4
)

// dcache wraps an L1-D array with its in-flight prefetch fills.
type dcache struct {
	arr       *cache.Cache
	pf        *cache.StridePrefetcher
	fillBlock [fillSlots]uint64
	fillReady [fillSlots]int64
	fillNext  int
}

func (d *dcache) pendingFill(block uint64) (int64, bool) {
	for i, b := range d.fillBlock {
		if b == block|1<<63 {
			return d.fillReady[i], true
		}
	}
	return 0, false
}

func (d *dcache) addFill(block uint64, ready int64) {
	d.fillBlock[d.fillNext] = block | 1<<63
	d.fillReady[d.fillNext] = ready
	d.fillNext = (d.fillNext + 1) % fillSlots
}

type fetched struct {
	op         isa.MicroOp
	seq        uint64
	mispredict bool
	// prevDone carries a squashed op's originally scheduled completion
	// time into its replay: re-execution cannot beat the original
	// execution, so pipeline flushes are never a net win.
	prevDone int64
}

type robEnt struct {
	doneAt int64
	isMem  bool
	f      fetched // retained for squash-and-replay on mode switches
}

type missEvent struct {
	at    int64
	delta int8
}

type thread struct {
	id  int
	src Stream

	next    isa.MicroOp
	hasNext bool
	seq     uint64 // next fetch sequence number

	histDone [histSize]int64

	fetchBuf             []fetched // FIFO
	fetchBlockedUntil    int64
	dispatchBlockedUntil int64 // pipeline-flush refill (mode switches)
	lastFetchBlock       uint64

	// Wrong-path state: after a mispredicted branch dispatches, the
	// thread keeps fetching and dispatching past it (the junk occupies
	// window resources exactly as a real wrong path does); at resolution
	// everything younger than the branch is squashed and replayed as the
	// correct path.
	wrongPath   bool
	wpResolveAt int64
	wpOlder     int // in-ROB entries at or older than the faulting branch

	rob              []robEnt // ring
	robHead, robOcc  int
	lsqOcc           int
	robLimit, lsqLim int

	mshr *cache.MSHRs

	committed uint64

	// measurement window
	measStartCycle, measEndCycle int64
	measStartN, measEndN         uint64

	// statistics
	branches, mispredicts uint64
	dAccesses, dMisses    uint64
	iAccesses, iMisses    uint64
	missEvents            []missEvent

	// stall accounting (cycles; diagnostic)
	stallFetchBlocked uint64 // fetch blocked: I-miss, mispredict recovery, flush
	stallBranchRec    uint64 // subset of stallFetchBlocked: mispredict recovery
	stallROBFull      uint64 // dispatch blocked on ROB limit
	stallLSQFull      uint64 // dispatch blocked on LSQ limit
	stallEmptyFB      uint64 // dispatch found empty fetch buffer
}

// Core is one simulated SMT core instance.
type Core struct {
	cfg      Config
	nthreads int
	threads  []*thread

	l1i [2]*cache.Cache // may alias when shared
	l1d [2]*dcache
	llc [2]*cache.Cache
	bp  [2]*branch.Predictor

	fuUse [isa.NumFUClasses][]int16

	cycle int64

	modeSwitches uint64
}

// New builds a core running the given streams (one per hardware thread;
// one or two threads supported).
func New(cfg Config, streams ...Stream) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(streams) < 1 || len(streams) > 2 {
		return nil, fmt.Errorf("core: need 1 or 2 streams, got %d", len(streams))
	}
	c := &Core{cfg: cfg, nthreads: len(streams)}

	if cfg.SharedL1I && c.nthreads == 2 {
		shared := cache.New(cfg.L1I)
		c.l1i[0], c.l1i[1] = shared, shared
	} else {
		c.l1i[0] = cache.New(cfg.L1I)
		c.l1i[1] = cache.New(cfg.L1I)
	}
	newD := func() *dcache {
		d := &dcache{arr: cache.New(cfg.L1D)}
		if cfg.Prefetch {
			d.pf = cache.NewStridePrefetcher(cfg.PrefetchPCs)
		}
		return d
	}
	if cfg.SharedL1D && c.nthreads == 2 {
		shared := newD()
		c.l1d[0], c.l1d[1] = shared, shared
	} else {
		c.l1d[0], c.l1d[1] = newD(), newD()
	}
	c.llc[0] = cache.New(cache.LLCPartitionConfig())
	c.llc[1] = cache.New(cache.LLCPartitionConfig())
	if cfg.SharedBP && c.nthreads == 2 {
		shared := branch.New(cfg.Branch, true)
		c.bp[0], c.bp[1] = shared, shared
	} else {
		c.bp[0] = branch.New(cfg.Branch, false)
		c.bp[1] = branch.New(cfg.Branch, false)
	}
	for cl := range c.fuUse {
		c.fuUse[cl] = make([]int16, fuRingSize)
	}

	for i, s := range streams {
		t := &thread{
			id:       i,
			src:      s,
			fetchBuf: make([]fetched, 0, cfg.FetchBufEntries),
			rob:      make([]robEnt, cfg.ROBEntries),
			mshr:     cache.NewMSHRs(cfg.MSHRPerThread),
		}
		c.threads = append(c.threads, t)
	}
	c.applyLimits()
	return c, nil
}

// applyLimits loads the per-thread limit registers from the config.
func (c *Core) applyLimits() {
	for _, t := range c.threads {
		switch c.cfg.ROBPolicy {
		case ROBPrivate:
			t.robLimit, t.lsqLim = c.cfg.ROBEntries, c.cfg.LSQEntries
		case ROBDynamic:
			// The Fig. 11 study shares the ROB dynamically; the LSQ
			// keeps its static split (the study isolates the ROB).
			t.robLimit = c.cfg.ROBEntries
			t.lsqLim = c.cfg.LSQEntries / 2
			if c.nthreads == 1 {
				t.lsqLim = c.cfg.LSQEntries
			}
		default:
			t.robLimit, t.lsqLim = c.cfg.ROBLimit[t.id], c.cfg.LSQLimit[t.id]
		}
	}
}

// SetPartition reprograms the Stretch limit registers. Mirroring §IV-C's
// "any mode change is accompanied by a pipeline flush in both threads",
// both windows are squashed — their in-flight µops are replayed through
// dispatch — the new limits apply immediately, and fetch stalls for the
// flush penalty.
func (c *Core) SetPartition(rob0 int) error {
	cfg := c.cfg
	if err := cfg.SetSkew(rob0); err != nil {
		return err
	}
	c.cfg.ROBLimit, c.cfg.LSQLimit = cfg.ROBLimit, cfg.LSQLimit
	c.cfg.ROBPolicy = ROBPartitioned
	for _, t := range c.threads {
		c.squash(t)
	}
	c.applyLimits()
	c.modeSwitches++
	return nil
}

// squash flushes a thread's pipeline: in-flight µops return to the front of
// the fetch buffer for replay (their cache fills and trained predictor state
// persist, as after a real flush) and fetch pays the flush penalty.
func (c *Core) squash(t *thread) {
	if t.robOcc > 0 {
		replay := make([]fetched, 0, t.robOcc+len(t.fetchBuf))
		for i := 0; i < t.robOcc; i++ {
			f := t.rob[(t.robHead+i)%len(t.rob)].f
			if t.wrongPath && i >= t.wpOlder {
				// Wrong-path junk: its timing is discarded (as in
				// resolveWrongPath); correct-path in-flight work
				// keeps its schedule so a flush is never a net win.
				f.prevDone = 0
			}
			replay = append(replay, f)
		}
		replay = append(replay, t.fetchBuf...)
		t.fetchBuf = replay
		t.robOcc, t.robHead, t.lsqOcc = 0, 0, 0
	}
	t.wrongPath = false
	if u := c.cycle + int64(c.cfg.FlushCycles); u > t.fetchBlockedUntil {
		t.fetchBlockedUntil = u
	}
	if u := c.cycle + int64(c.cfg.FlushCycles); u > t.dispatchBlockedUntil {
		t.dispatchBlockedUntil = u
	}
}

// SetEqualPartition reprograms the Baseline 50:50 split (drain + flush).
func (c *Core) SetEqualPartition() error { return c.SetPartition(c.cfg.ROBEntries / 2) }

// ModeSwitches reports how many partition reprogrammings have occurred.
func (c *Core) ModeSwitches() uint64 { return c.modeSwitches }

// Cycle returns the current cycle count.
func (c *Core) Cycle() int64 { return c.cycle }

// salt disambiguates the two threads' address spaces in shared structures.
func salt(addr uint64, tid int) uint64 {
	return addr ^ uint64(tid)<<45
}

// reserveFU books the earliest free slot of class cl at or after ready.
func (c *Core) reserveFU(cl isa.FUClass, ready int64) int64 {
	limit := c.cycle + fuRingSize - 1
	if ready > limit {
		return ready // beyond the horizon: contention negligible
	}
	cap16 := int16(c.cfg.FU[cl])
	t := ready
	for ; t < limit; t++ {
		if c.fuUse[cl][t&(fuRingSize-1)] < cap16 {
			c.fuUse[cl][t&(fuRingSize-1)]++
			return t
		}
	}
	return t
}

// step advances the core one cycle: commit, dispatch, fetch.
func (c *Core) step() {
	// Recycle the FU reservation slot that now refers to a future cycle.
	idx := (c.cycle + fuRingSize - 1) & (fuRingSize - 1)
	for cl := range c.fuUse {
		c.fuUse[cl][idx] = 0
	}

	for _, t := range c.threads {
		c.resolveWrongPath(t)
		if t.wrongPath {
			t.stallBranchRec++ // cycles spent on the wrong path
		}
	}
	c.commit()

	order := c.priorityOrder()
	c.dispatch(order)
	c.fetch(order)
	c.cycle++
}

// priorityOrder returns thread indices in ICOUNT order (fewest in-flight
// µops first).
func (c *Core) priorityOrder() [2]int {
	if c.nthreads == 1 {
		return [2]int{0, 0}
	}
	i0 := c.threads[0].robOcc + len(c.threads[0].fetchBuf)
	i1 := c.threads[1].robOcc + len(c.threads[1].fetchBuf)
	if i1 < i0 {
		return [2]int{1, 0}
	}
	return [2]int{0, 1}
}

// commit retires completed µops in order, round-robin across threads.
func (c *Core) commit() {
	slots := c.cfg.Width
	first := int(c.cycle) & 1
	if c.nthreads == 1 {
		first = 0
	}
	for i := 0; i < c.nthreads && slots > 0; i++ {
		t := c.threads[(first+i)%c.nthreads]
		for slots > 0 && t.robOcc > 0 {
			e := &t.rob[t.robHead]
			if e.doneAt > c.cycle {
				break
			}
			if e.isMem {
				t.lsqOcc--
			}
			t.robHead = (t.robHead + 1) % len(t.rob)
			t.robOcc--
			if t.wrongPath && t.wpOlder > 0 {
				t.wpOlder--
			}
			t.committed++
			slots--
		}
	}
}

// poolOcc returns total ROB and LSQ occupancy (dynamic-sharing check).
func (c *Core) poolOcc() (rob, lsq int) {
	for _, t := range c.threads {
		rob += t.robOcc
		lsq += t.lsqOcc
	}
	return rob, lsq
}

// dispatch moves µops from fetch buffers into the windows and schedules
// their execution.
func (c *Core) dispatch(order [2]int) {
	slots := c.cfg.Width
	for i := 0; i < c.nthreads && slots > 0; i++ {
		t := c.threads[order[i]]
		if c.cycle < t.dispatchBlockedUntil {
			continue // refilling the front of the pipe after a flush
		}
		if len(t.fetchBuf) == 0 {
			t.stallEmptyFB++
		}
		for slots > 0 && len(t.fetchBuf) > 0 {
			f := t.fetchBuf[0]
			isMem := f.op.Kind.IsMem()
			if t.robOcc >= t.robLimit {
				t.stallROBFull++
				break
			}
			if isMem && t.lsqOcc >= t.lsqLim {
				t.stallLSQFull++
				break
			}
			if c.cfg.ROBPolicy == ROBDynamic {
				pr, pl := c.poolOcc()
				if pr >= c.cfg.ROBEntries || (isMem && pl >= c.cfg.LSQEntries) {
					break
				}
			}
			copy(t.fetchBuf, t.fetchBuf[1:])
			t.fetchBuf = t.fetchBuf[:len(t.fetchBuf)-1]
			c.schedule(t, f)
			slots--
		}
	}
}

// schedule computes the µop's completion time and inserts it into the ROB.
func (c *Core) schedule(t *thread, f fetched) {
	op := &f.op
	ready := c.cycle + 1
	for _, dep := range [2]int32{op.Dep1, op.Dep2} {
		if dep <= 0 || dep > maxDepDist {
			continue
		}
		p := int64(f.seq) - int64(dep)
		if p < 0 {
			continue
		}
		if d := t.histDone[p&(histSize-1)]; d > ready {
			ready = d
		}
	}

	issue := c.reserveFU(isa.FUFor(op.Kind), ready)
	var done int64
	switch op.Kind {
	case isa.OpLoad:
		done = c.loadDone(t, op, issue)
	case isa.OpStore:
		done = issue + 1
		c.storeAccess(t, op)
	default:
		done = issue + int64(isa.Latency(op.Kind))
	}

	if done < f.prevDone {
		done = f.prevDone
	}
	t.histDone[int64(f.seq)&(histSize-1)] = done

	tail := (t.robHead + t.robOcc) % len(t.rob)
	f.prevDone = done
	t.rob[tail] = robEnt{doneAt: done, isMem: op.Kind.IsMem(), f: f}
	t.robOcc++
	if op.Kind.IsMem() {
		t.lsqOcc++
	}

	// A mispredicted branch puts the thread on the wrong path until it
	// resolves; everything dispatched after it will be squashed then.
	if f.mispredict && !t.wrongPath {
		t.wrongPath = true
		t.wpResolveAt = done
		t.wpOlder = t.robOcc // includes the branch itself
	}
}

// resolveWrongPath squashes everything younger than the faulting branch
// once it resolves: the junk µops return to the fetch buffer for replay as
// the correct path, and fetch pays the flush/redirect penalty.
func (c *Core) resolveWrongPath(t *thread) {
	if !t.wrongPath || c.cycle < t.wpResolveAt {
		return
	}
	young := t.robOcc - t.wpOlder
	if young > 0 {
		replay := make([]fetched, 0, young+len(t.fetchBuf))
		for i := t.wpOlder; i < t.robOcc; i++ {
			e := &t.rob[(t.robHead+i)%len(t.rob)]
			f := e.f
			// The junk execution's timing is discarded: the correct
			// path re-executes from scratch after the redirect.
			f.prevDone = 0
			replay = append(replay, f)
			if e.isMem {
				t.lsqOcc--
			}
		}
		replay = append(replay, t.fetchBuf...)
		t.fetchBuf = replay
		t.robOcc = t.wpOlder
	}
	t.wrongPath = false
	if u := c.cycle + int64(c.cfg.FlushCycles); u > t.fetchBlockedUntil {
		t.fetchBlockedUntil = u
	}
}

// loadDone models the D-side hierarchy and returns the load's completion
// cycle.
func (c *Core) loadDone(t *thread, op *isa.MicroOp, issue int64) int64 {
	d := c.l1d[t.id]
	addr := salt(op.Addr, t.id)
	t.dAccesses++

	// Stride prefetcher: observe every access; launch a fill for the
	// predicted next address if it is not already present or pending.
	if d.pf != nil {
		if p, ok := d.pf.Observe(salt(uint64(op.Site)<<2, t.id), addr, prefetchDegree); ok {
			pb := p >> 6
			if _, pend := d.pendingFill(pb); !pend && !d.arr.Probe(p) {
				lat := int64(c.cfg.LLCLatency)
				if !c.llc[t.id].Access(p) {
					lat = int64(c.cfg.MemLatency)
				}
				d.addFill(pb, issue+lat)
			}
		}
	}

	if d.arr.Access(addr) {
		return issue + int64(c.cfg.L1DHitLatency)
	}
	block := addr >> 6

	// In-flight prefetch fill?
	if ready, ok := d.pendingFill(block); ok {
		if ready <= issue {
			d.arr.Fill(addr)
			return issue + int64(c.cfg.L1DHitLatency)
		}
		return ready + 1
	}

	t.dMisses++
	t.mshr.Expire(issue)
	// Merge with an outstanding miss to the same block.
	if ready, ok := t.mshr.Pending(addr); ok {
		return ready + 1
	}
	alloc := issue
	if t.mshr.Full() {
		alloc = t.mshr.NextFree(issue)
		t.mshr.Expire(alloc)
	}
	lat := int64(c.cfg.LLCLatency)
	if !c.llc[t.id].Access(addr) {
		lat = int64(c.cfg.MemLatency)
	}
	ready := alloc + lat
	t.mshr.Allocate(addr, ready)
	// The MLP census counts correct-path demand misses only; wrong-path
	// loads still consume MSHRs and pollute caches (as on real hardware)
	// but are not the program's memory-level parallelism.
	if !t.wrongPath {
		t.missEvents = append(t.missEvents,
			missEvent{at: alloc, delta: 1}, missEvent{at: ready, delta: -1})
	}
	return ready + 1
}

// storeAccess models a store's cache allocation; the write buffer hides its
// latency, so stores complete at issue+1 and only perturb cache state.
func (c *Core) storeAccess(t *thread, op *isa.MicroOp) {
	d := c.l1d[t.id]
	addr := salt(op.Addr, t.id)
	t.dAccesses++
	if !d.arr.Access(addr) {
		t.dMisses++
		c.llc[t.id].Access(addr)
	}
}

// fetch pulls µops from the traces into the fetch buffers.
func (c *Core) fetch(order [2]int) {
	slots := c.cfg.Width
	throttleM := c.cfg.FetchThrottle
	for i := 0; i < c.nthreads && slots > 0; i++ {
		tid := order[i]
		if throttleM > 1 && c.nthreads == 2 {
			// 1:M bandwidth split: the throttled thread owns one
			// cycle in M+1, the co-runner owns the rest. The
			// owner's unused slots are not donated — donating
			// would defeat the throttle.
			ownerIsThrottled := c.cycle%int64(throttleM+1) == 0
			if (tid == c.cfg.ThrottledThread) != ownerIsThrottled {
				continue
			}
		}
		n := c.fetchThread(c.threads[tid], slots)
		slots -= n
		if n > 0 && c.cfg.StrictICount {
			break // pure ICOUNT: one thread owns the cycle's fetch
		}
	}
}

// fetchThread fetches up to max µops for t this cycle, honouring the
// block/branch structural limits. It returns the number fetched.
func (c *Core) fetchThread(t *thread, max int) int {
	if c.cycle < t.fetchBlockedUntil {
		t.stallFetchBlocked++
		return 0
	}
	n := 0
	blocks := 0
	curBlock := t.lastFetchBlock
	for n < max && len(t.fetchBuf) < c.cfg.FetchBufEntries {
		if !t.hasNext {
			t.next = t.src.Next()
			t.hasNext = true
		}
		op := t.next

		block := salt(op.PC, t.id) >> 6
		if block != curBlock {
			if blocks >= c.cfg.FetchBlocks {
				break
			}
			blocks++
			t.iAccesses++
			if !c.l1i[t.id].Access(salt(op.PC, t.id)) {
				t.iMisses++
				lat := int64(c.cfg.LLCLatency)
				if !c.llc[t.id].Access(salt(op.PC, t.id)) {
					lat = int64(c.cfg.MemLatency)
				}
				t.fetchBlockedUntil = c.cycle + lat
				break // the missing block's µops fetch after the fill
			}
			curBlock = block
		}

		f := fetched{op: op, seq: t.seq}
		stop := false
		if op.Kind == isa.OpBranch {
			t.branches++
			out := c.bp[t.id].Predict(t.id, salt(op.PC, t.id))
			mis := out.PredictTaken != op.Taken || (op.Taken && !out.BTBHit)
			c.bp[t.id].Update(t.id, salt(op.PC, t.id), op.Taken)
			if mis {
				t.mispredicts++
				f.mispredict = true
				stop = true // redirect ends the fetch group
			} else if op.Taken {
				stop = true // ≤1 taken branch per fetch cycle
			}
		}

		t.fetchBuf = append(t.fetchBuf, f)
		t.seq++
		t.hasNext = false
		n++
		if stop {
			curBlock = ^uint64(0) // next fetch starts a new block
			break
		}
	}
	t.lastFetchBlock = curBlock
	return n
}
