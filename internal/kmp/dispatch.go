package kmp

import (
	"sync"
	"sync/atomic"
)

// Dynamic worksharing: the lowering target of schedule(dynamic|guided|
// runtime|auto|trapezoidal) loops. Two execution engines share one
// descriptor protocol:
//
//   - The stealing engine (nonmonotonic, the OpenMP 5.0 default for
//     dynamic-family kinds): every thread is seeded with its contiguous
//     static block of the iteration space as a splittable range. It pops
//     policy-sized chunks from the front of its own range — one CAS on a
//     cache line no other core touches unless it is actively stealing — and
//     when dry takes the upper half of a victim's range, so the only shared
//     write traffic is the steals themselves. This retires the shared
//     iteration counter that made every chunk grab of a fine-grained loop a
//     contended atomic on one cache line.
//
//   - The monotonic engine, mirroring libomp's __kmpc_dispatch_init_8 /
//     __kmpc_dispatch_next_8 shared-counter protocol. It remains the
//     compliance path: the monotonic: schedule modifier demands it, ordered
//     loops need its in-order chunk tickets, and iteration spaces too long
//     for the packed range bounds fall back to it (nonmonotonic permits any
//     conforming order, including monotonic).
//
// Chunk sizing is one policy object either way (schedPolicy, sched.go):
// dynamic, guided and trapezoidal are pure nextChunk(remaining) functions
// instead of per-kind grab loops.
//
// The shared loop descriptor lives in a ring of per-team buffers, like
// libomp's dispatch buffers: each thread counts the worksharing loops it has
// entered (Thread.dispatchSeq) and instance s uses buffer s mod ring. The
// OpenMP rules require all team threads to encounter the same sequence of
// worksharing regions, so the sequence numbers agree; with nowait loops a
// fast thread may race ahead, at most ring-1 loops, before blocking on a
// buffer still draining its previous instance. The drain protocol is also
// what makes range reuse safe for the stealing engine: a buffer (and its
// per-thread ranges) is recycled only after every team thread has detached
// from the previous instance, so no thief can touch a stale range.

const dispatchRing = 8 // libomp uses KMP_MAX_DISP_NUM_BUFF = 7

// maxStealTrip bounds the trip count the stealing engine's packed 32-bit
// range bounds can represent; longer loops dispatch monotonically.
const maxStealTrip = 1 << 31

// stealRange is one thread's share of a stealing loop instance: a half-open
// iteration range packed into a single 64-bit word (lo in the low half, hi
// in the high half) so the owner's pop and a thief's split are each one CAS.
// Within one loop instance an iteration belongs to at most one range ever —
// pops and steals only ever shrink or transfer unclaimed iterations — so a
// packed value can never recur and the CAS is ABA-free.
type stealRange struct {
	bounds atomic.Uint64
	_      pad
}

func packRange(lo, hi int64) uint64 { return uint64(hi)<<32 | uint64(uint32(lo)) }

func unpackRange(w uint64) (lo, hi int64) { return int64(w & 0xffffffff), int64(w >> 32) }

// stealHalf removes and returns the upper half of the range (rounded up) —
// the steal-largest-remaining heuristic of Chase–Lev thieves adapted from
// single tasks to splittable ranges.
func (r *stealRange) stealHalf() (int64, int64, bool) {
	for {
		w := r.bounds.Load()
		lo, hi := unpackRange(w)
		if lo >= hi {
			return 0, 0, false
		}
		mid := hi - (hi-lo+1)/2
		if r.bounds.CompareAndSwap(w, packRange(lo, mid)) {
			return mid, hi, true
		}
		// Lost the race against the owner or another thief; retry.
	}
}

type dispatchBuf struct {
	mu   sync.Mutex
	cond *sync.Cond
	// tag is the loop instance number + 1 occupying this buffer; 0 = free.
	tag uint64
	// done counts team threads that have drained this instance.
	done int

	// Loop parameters, written by the initialising thread before tag is
	// published under mu.
	loc      Ident
	sched    Sched
	trip     int64
	nth      int64
	pol      schedPolicy
	stealing bool
	ordered  bool
	// staticOrd marks an ordered loop with a static schedule: chunks are
	// handed out by the deterministic static mapping (OpenMP guarantees
	// schedule(static) reproducibility even under ordered), with the
	// buffer supplying only the ordered ticket chain and drain protocol.
	staticOrd bool

	// ranges holds the per-thread splittable ranges of the stealing
	// engine, one cache-line-padded slot per team thread; reused across
	// instances once grown.
	ranges []stealRange

	// next is the first unclaimed iteration (monotonic engine).
	next atomic.Int64
	// chunkIdx counts chunks issued by the monotonic engine (trapezoidal
	// taper); the stealing engine tapers per thread (Thread.chunkIdx).
	chunkIdx atomic.Int64
	_        pad
	// orderedIter is the ordered ticket (ordered.go), on a line of its own:
	// the next chunk's holder polls it while every grab writes next.
	orderedIter atomic.Int64
	_           pad
}

func (b *dispatchBuf) init() {
	if b.cond == nil {
		b.cond = sync.NewCond(&b.mu)
	}
	b.tag = 0
	b.done = 0
	b.stealing = false
	b.ordered = false
	b.staticOrd = false
	b.next.Store(0)
	b.chunkIdx.Store(0)
	b.orderedIter.Store(0)
}

// DispatchInit attaches the thread to worksharing-loop instance over a
// trip-count iteration space with the given schedule. Mirrors
// __kmpc_dispatch_init_8: the first thread to arrive publishes the loop
// descriptor — choosing the engine and seeding the stealing ranges — and the
// rest join it. schedule(runtime) resolves against the run-sched ICV here,
// at loop entry, exactly once per loop.
func (t *Thread) DispatchInit(loc Ident, sched Sched, trip int64) {
	if loc == (Ident{}) {
		// Unlocated loops — the loop half of a combined parallel-for — are
		// attributed to their region, as static loops are.
		loc = t.team.loc
	}
	if sched.Kind == SchedRuntime {
		rs := GetICV().RunSched
		if rs.Kind == SchedRuntime { // guard: ICV must not self-refer
			rs = Sched{Kind: SchedStatic}
		}
		rs.Ordered = sched.Ordered // the clause belongs to the loop, not the ICV
		if sched.Mod != SchedModNone {
			// An explicit modifier on the construct is a constraint on the
			// loop and survives resolution (front ends normally reject the
			// combination; programmatic callers can still express it).
			rs.Mod = sched.Mod
		}
		sched = rs
	}
	// Whether the loop is recorded is decided here, once: detach records
	// its loop-fini span only if loopNs holds this loop's entry.
	t.loopNs = 0
	if g := eventGate.Load(); g != 0 {
		t.loopNs = TraceNow()
		t.event(g, TraceEvent{
			Kind: TraceLoopInit, Loc: loc, When: t.loopNs,
			Arg0: trip, Arg1: sched.Chunk,
		})
	}
	tm := t.team
	tm.touch(dirtyLoops)
	t.wsSeq++
	t.curWsSeq = t.wsSeq
	t.chunkIdx = 0
	t.curChunkLo, t.curChunkHi, t.orderedSeen = 0, 0, 0
	seq := t.dispatchSeq
	t.dispatchSeq++
	buf := &tm.disp[seq%dispatchRing]
	want := uint64(seq) + 1

	buf.mu.Lock()
	for buf.tag != want && buf.tag != 0 {
		// Buffer still occupied by instance seq-ring: wait for the
		// slowest thread of that loop to drain it.
		buf.cond.Wait()
	}
	if buf.tag == 0 {
		stealing := false
		switch sched.Kind {
		case SchedDynamicChunked, SchedGuidedChunked, SchedTrapezoidal, SchedAuto:
			// trip > 0 matters: a non-positive trip must dispatch nothing,
			// and StaticBlock's empty [0,0) seed would wrap through the
			// packed 32-bit bounds for negative trips.
			stealing = sched.Mod != SchedModMonotonic && !sched.Ordered &&
				tm.n > 1 && trip > 0 && trip < maxStealTrip
		}
		buf.loc = loc
		buf.sched = sched
		buf.trip = trip
		buf.nth = int64(tm.n)
		buf.pol = policyFor(sched, trip, int64(tm.n), stealing)
		buf.stealing = stealing
		buf.ordered = sched.Ordered
		buf.staticOrd = sched.Ordered &&
			(sched.Kind == SchedStatic || sched.Kind == SchedStaticChunked)
		buf.next.Store(0)
		buf.chunkIdx.Store(0)
		buf.orderedIter.Store(0)
		if stealing {
			if cap(buf.ranges) < tm.n {
				buf.ranges = make([]stealRange, tm.n)
			}
			buf.ranges = buf.ranges[:tm.n]
			for i := 0; i < tm.n; i++ {
				lo, hi := StaticBlock(i, tm.n, trip)
				buf.ranges[i].bounds.Store(packRange(lo, hi))
			}
		}
		buf.done = 0
		buf.tag = want
		buf.cond.Broadcast()
	}
	buf.mu.Unlock()
	t.curLoop = buf
}

// DispatchNext returns the next chunk [lo, hi) of the loop the thread is
// attached to, or ok == false when the iteration space is exhausted — at
// which point the thread is detached and the buffer may be recycled.
// Mirrors __kmpc_dispatch_next_8. Every grab — local pop, steal, or shared
// counter — is a cancellation point: a cancelled loop (or region) dispatches
// no further iterations.
func (t *Thread) DispatchNext() (lo, hi int64, ok bool) {
	buf := t.curLoop
	if buf == nil {
		return 0, 0, false
	}
	if buf.ordered {
		// Retire the previous chunk's ordered tickets (__kmp_dispatch
		// finish): iterations that never executed their ordered region
		// must not stall successors.
		t.orderedFinishChunk(buf)
	}
	if t.loopCancelled() {
		t.detach(buf)
		return 0, 0, false
	}
	switch {
	case buf.stealing:
		lo, hi, ok = t.grabSteal(buf)
	case buf.staticOrd:
		lo, hi, ok = t.grabStaticOrdered(buf)
	default:
		lo, hi, ok = buf.grabShared()
	}
	if !ok {
		t.detach(buf)
		return 0, 0, false
	}
	if buf.ordered {
		t.curChunkLo, t.curChunkHi, t.orderedSeen = lo, hi, 0
	}
	return lo, hi, ok
}

// grabShared claims the next chunk from the shared monotonic counter — the
// legacy __kmpc_dispatch_next protocol, kept as the compliance path for
// monotonic: schedules, ordered loops and over-long iteration spaces.
// Fixed-chunk policies (dynamic, static-via-dispatch) take the wait-free
// fetch-add path; shrinking policies recompute the size under a CAS loop.
func (b *dispatchBuf) grabShared() (int64, int64, bool) {
	if chunk := b.pol.fixed; chunk > 0 {
		lo := b.next.Add(chunk) - chunk
		if lo >= b.trip {
			return 0, 0, false
		}
		hi := lo + chunk
		if hi > b.trip {
			hi = b.trip
		}
		return lo, hi, true
	}
	for {
		cur := b.next.Load()
		remaining := b.trip - cur
		if remaining <= 0 {
			return 0, 0, false
		}
		size := b.pol.nextChunk(remaining, b.chunkIdx.Load())
		if b.next.CompareAndSwap(cur, cur+size) {
			b.chunkIdx.Add(1)
			return cur, cur + size, true
		}
	}
}

// grabStaticOrdered hands the thread its own chunks of a static-schedule
// ordered loop, preserving the deterministic iteration-to-thread mapping of
// schedule(static): chunk c goes to thread c mod nth (round-robin) or, with
// no chunk, each thread gets its balanced block. Every thread walks its
// chunks in increasing iteration order, so the ordered ticket chain resolves
// bottom-up exactly as it does for the shared counter's issue order.
func (t *Thread) grabStaticOrdered(b *dispatchBuf) (int64, int64, bool) {
	if chunk := b.sched.Chunk; chunk > 0 {
		lo := (int64(t.Tid) + t.chunkIdx*b.nth) * chunk
		if lo >= b.trip {
			return 0, 0, false
		}
		t.chunkIdx++
		hi := lo + chunk
		if hi > b.trip {
			hi = b.trip
		}
		return lo, hi, true
	}
	if t.chunkIdx > 0 {
		return 0, 0, false // the block partition is a single chunk
	}
	lo, hi := StaticBlock(t.Tid, int(b.nth), b.trip)
	if lo >= hi {
		return 0, 0, false
	}
	t.chunkIdx++
	return lo, hi, true
}

// grabSteal claims the next chunk on the stealing engine: pop from the
// thread's own range, and when that is dry sweep the team for a victim,
// split off the upper half of its range, keep one policy-sized chunk and
// publish the rest as the new local range. Returning false means every
// range in the team is empty — all iterations are claimed — so the loop is
// exhausted for this thread.
func (t *Thread) grabSteal(b *dispatchBuf) (int64, int64, bool) {
	if lo, hi, ok := b.popLocal(t.Tid, &t.chunkIdx); ok {
		return lo, hi, true
	}
	t.setWait(StateStealing)
	defer t.setWait(StateRunning)
	n := int(b.nth)
	for i := 1; i < n; i++ {
		victim := (t.Tid + i) % n
		slo, shi, ok := b.ranges[victim].stealHalf()
		if !ok {
			continue
		}
		if g := eventGate.Load(); g != 0 {
			t.event(g, TraceEvent{
				Kind: TraceLoopSteal, Loc: b.loc, When: TraceNow(),
				Arg0: int64(t.team.threads[victim].Gtid), Arg1: shi - slo,
			})
		}
		size := b.pol.nextChunk(shi-slo, t.chunkIdx)
		t.chunkIdx++
		if slo+size < shi {
			// Our own range is empty (that is why we stole) and only
			// the owner installs, so a plain store publishes the
			// remainder; in-flight thief CASes carry stale non-empty
			// expected values that can never match it.
			b.ranges[t.Tid].bounds.Store(packRange(slo+size, shi))
		}
		return slo, slo + size, true
	}
	return 0, 0, false
}

// popLocal claims a policy-sized chunk from the front of thread tid's own
// range. idx is the owner's chunk counter (trapezoidal taper). The CAS is
// uncontended unless a thief is splitting this range at this very moment.
func (b *dispatchBuf) popLocal(tid int, idx *int64) (int64, int64, bool) {
	r := &b.ranges[tid]
	for {
		w := r.bounds.Load()
		lo, hi := unpackRange(w)
		if lo >= hi {
			return 0, 0, false
		}
		size := b.pol.nextChunk(hi-lo, *idx)
		if r.bounds.CompareAndSwap(w, packRange(lo+size, hi)) {
			*idx++
			return lo, lo + size, true
		}
		// A thief shrank the range mid-claim; retry against the new bounds.
	}
}

// detach records that this thread has drained the loop; the last thread out
// frees the buffer for reuse by instance seq+ring.
func (t *Thread) detach(buf *dispatchBuf) {
	t.curLoop = nil
	t.curWsSeq = 0 // the thread is no longer inside a worksharing loop
	if g := eventGate.Load(); g != 0 && t.loopNs != 0 {
		// Attributed to the loop's own location (buf.loc) so the profiler
		// never shows an unlocated loop-fini row; the span runs from this
		// thread's DispatchInit to its drain.
		t.event(g, TraceEvent{
			Kind: TraceLoopFini, Loc: buf.loc, When: t.loopNs,
			Dur: TraceNow() - t.loopNs,
		})
	}
	buf.mu.Lock()
	buf.done++
	if buf.done == t.team.n {
		buf.tag = 0
		buf.done = 0
		buf.cond.Broadcast()
	}
	buf.mu.Unlock()
}

// ForDynamic is the convenience wrapper the generated code uses for a whole
// dynamic-family loop: init, drain chunks through body, detach. No barrier
// is performed (nowait is the caller's concern, as with Loop).
func ForDynamic(t *Thread, loc Ident, sched Sched, trip int64, body func(begin, end int64)) {
	t.DispatchInit(loc, sched, trip)
	for {
		lo, hi, ok := t.DispatchNext()
		if !ok {
			return
		}
		body(lo, hi)
	}
}
