package kmp

import "sync/atomic"

// Worksharing loops: DispatchInit/DispatchNext is the one loop protocol,
// for every schedule. A static loop without the ordered clause, and any
// loop in a team of one, is the thread's own (static.go). The rest —
// schedule(dynamic|guided) loops, ordered loops and the monotonic: modifier
// — share one engine; runtime and auto first resolve to a kind (auto runs as
// guided,1). A thread claims a chunk by popping it off the front of a range
// with one CAS, and DispatchInit decides whose range that is, in one of two
// configurations.
//
//   - Per-thread (nonmonotonic, the OpenMP 5.0 default for dynamic-family
//     kinds, in a team of more than one thread, 0 < trip < 2^31): every
//     thread is seeded with its contiguous static block of the iteration
//     space as a splittable range. It pops from its own range — a cache line
//     no other core touches unless it is stealing — and when dry takes the
//     upper half of a victim's range, so the only shared write traffic is
//     the steals themselves.
//
//   - Shared (everything else: monotonic:, ordered, trip <= 0, trips of
//     2^31 or more): the team pops from ranges[0] and nobody steals —
//     libomp's __kmpc_dispatch_next_8 counter. The range's hi is the
//     constant trip, so its word holds lo alone, a full 64 bits: no trip
//     count is too long for it. Chunks leave it in increasing iteration
//     order, which is what monotonic: promises and what the ordered ticket
//     chain (ordered.go) relies on.
//
// Chunk sizing is one policy object either way (schedPolicy, sched.go):
// dynamic and guided are pure nextChunk(remaining) functions of the popped
// range. The one loop here that does not pop is an ordered static loop:
// schedule(static)'s mapping is not a range (staticMapping).
//
// The loop descriptor lives in a ring of per-team buffers, like libomp's
// dispatch buffers: each thread counts the worksharing loops it has
// entered (Thread.wsSeq) and instance s uses buffer s mod ring. The
// OpenMP rules require all team threads to encounter the same sequence of
// worksharing regions, so the sequence numbers agree; with nowait loops a
// fast thread may race ahead, at most ring-1 loops, before waiting for a
// buffer still draining its previous instance. The first thread to reach a
// free buffer claims it (tag 0 → want|filling), writes the descriptor and
// publishes want; the last thread to detach frees it (tag 0). Both wake the
// team, whose other arrivals wait (wait.go) for tag == want or tag == 0. A
// buffer and its ranges are therefore recycled only after every team thread
// has detached from the previous instance, so no thief touches a stale range.

const dispatchRing = 8 // libomp uses KMP_MAX_DISP_NUM_BUFF = 7

// maxStealTrip bounds the trip count the per-thread configuration's packed
// 32-bit range bounds can represent; longer loops share one range.
const maxStealTrip = 1 << 31

// filling marks a claimed buffer whose descriptor is still being written.
const filling = 1 << 63

// loopRange is a range of unclaimed iterations, alone on its cache line. A
// per-thread range packs half-open bounds into the word (lo in the low half,
// hi in the high half), so the owner's pop and a thief's split are each one
// CAS; a shared range's word is lo. Within one loop instance an iteration
// belongs to at most one range ever — pops and steals only ever shrink or
// transfer unclaimed iterations — so a word can never recur and the CAS is
// ABA-free.
type loopRange struct {
	bounds atomic.Uint64
	_      pad
}

func packRange(lo, hi int64) uint64 { return uint64(hi)<<32 | uint64(uint32(lo)) }

func unpackRange(w uint64) (lo, hi int64) { return int64(w & 0xffffffff), int64(w >> 32) }

// stealHalf removes and returns the upper half of a per-thread range
// (rounded up) — the steal-largest-remaining heuristic of Chase–Lev thieves
// adapted from single tasks to splittable ranges.
func (r *loopRange) stealHalf() (int64, int64, bool) {
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
	// tag is the loop instance number + 1 occupying this buffer (0 = free),
	// with filling set while its claimant writes the descriptor.
	tag atomic.Uint64
	// done counts team threads that have drained this instance.
	done atomic.Int32

	// Loop parameters, written by the claimant before it publishes tag.
	loc      Ident
	trip     int64
	nth      int64
	pol      schedPolicy
	stealing bool // per-thread ranges; false: the shared ranges[0]
	ordered  bool
	// staticOrd marks an ordered loop with a static schedule: chunks are
	// handed out by the deterministic static mapping (OpenMP guarantees
	// schedule(static) reproducibility even under ordered), with the
	// buffer supplying only the ordered ticket chain and drain protocol.
	staticOrd bool

	// ranges holds one range per team thread, of which the shared
	// configuration uses only the first; reused across instances once grown.
	ranges []loopRange
	_      pad
	// orderedIter is the ordered ticket (ordered.go), on a line of its own:
	// the next chunk's holder polls it while arrivals and detachers write
	// tag and done.
	orderedIter atomic.Int64
	_           pad
}

// free releases the buffer whatever instance holds it (Team.reset: a region
// may end with a loop some thread never drained, after a panic or cancel).
func (b *dispatchBuf) free() {
	b.tag.Store(0)
	b.done.Store(0)
}

// DispatchInit attaches the thread to a worksharing-loop instance over a
// trip-count iteration space with the given schedule. Mirrors
// __kmpc_dispatch_init_8, and __kmpc_for_static_init for the loops that are
// the thread's own (staticInit); for the rest the first thread to arrive
// publishes the loop descriptor — choosing the configuration and seeding its
// ranges — and the others join it. schedule(runtime) resolves against the
// run-sched ICV here, at loop entry, exactly once per loop; schedule(auto),
// written or resolved, runs as guided,1.
func (t *Thread) DispatchInit(loc Ident, sched Sched, trip int64) {
	tm := t.team
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
	if sched.Kind == SchedAuto {
		sched.Kind, sched.Chunk = SchedGuidedChunked, 1
	}
	// Static loops count as worksharing instances too, so `cancel for` can
	// name them (cancel.go); the counter advances identically on every
	// thread by the OpenMP same-sequence rule.
	t.wsSeq++
	t.curWsSeq = t.wsSeq
	t.curChunkLo, t.curChunkHi, t.orderedSeen = 0, 0, 0
	static := sched.Kind == SchedStatic || sched.Kind == SchedStaticChunked
	if tm.n == 1 || static && !sched.Ordered {
		t.staticInit(trip, sched.Chunk)
		return
	}
	if static { // ordered: the buffer adds only the ticket chain
		t.stat = staticMapping(t.Tid, tm.n, trip, sched.Chunk)
	}
	if loc == (Ident{}) {
		// Unlocated loops — the loop half of a combined parallel-for — are
		// attributed to their region, as static loops are.
		loc = tm.loc
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
	tm.touch(dirtyLoops)
	want := t.wsSeq
	buf := &tm.disp[want%dispatchRing]

	for {
		tag := buf.tag.Load()
		if tag == want {
			break
		}
		if tag == 0 && buf.tag.CompareAndSwap(0, want|filling) {
			buf.fill(loc, sched, trip, tm.n)
			buf.tag.Store(want)
			tm.wakeTeam(t)
			break
		}
		// Another arrival is writing the descriptor, or the buffer still
		// holds instance seq-ring and its slowest thread has yet to drain it.
		t.wait(func() bool {
			tag := buf.tag.Load()
			return tag == want || tag == 0
		})
	}
	t.curLoop = buf
}

// fill writes the descriptor of a loop over trip iterations for a team of n:
// it picks the configuration and seeds the ranges.
func (b *dispatchBuf) fill(loc Ident, sched Sched, trip int64, n int) {
	stealing := false
	switch sched.Kind {
	case SchedDynamicChunked, SchedGuidedChunked:
		// trip > 0 matters: StaticBlock's empty [0,0) seed would wrap
		// through the packed 32-bit bounds for negative trips.
		stealing = sched.Mod != SchedModMonotonic && !sched.Ordered &&
			n > 1 && trip > 0 && trip < maxStealTrip
	}
	b.loc, b.trip, b.nth = loc, trip, int64(n)
	b.pol = policyFor(sched, int64(n), stealing)
	b.stealing = stealing
	b.ordered = sched.Ordered
	b.staticOrd = sched.Ordered &&
		(sched.Kind == SchedStatic || sched.Kind == SchedStaticChunked)
	b.orderedIter.Store(0)
	if cap(b.ranges) < n {
		b.ranges = make([]loopRange, n)
	}
	b.ranges = b.ranges[:n]
	if !stealing {
		b.ranges[0].bounds.Store(0) // lo; hi is trip
		return
	}
	for i := range b.ranges {
		b.ranges[i].bounds.Store(packRange(StaticBlock(i, n, trip)))
	}
}

// DispatchNext returns the next chunk [lo, hi) of the loop the thread is
// attached to, or ok == false when the thread's share is exhausted — at
// which point the thread is detached and a dispatch buffer may be recycled.
// Mirrors __kmpc_dispatch_next_8. Every grab — a pop, own or shared, or a
// steal — is a cancellation point: a cancelled loop (or region) dispatches
// no further iterations.
func (t *Thread) DispatchNext() (lo, hi int64, ok bool) {
	if t.inStatic {
		return t.staticNext()
	}
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
	if buf.staticOrd {
		// An ordered static loop keeps schedule(static)'s deterministic
		// mapping (OpenMP guarantees its reproducibility even under
		// ordered); every thread walks its chunks in increasing iteration
		// order, so the ticket chain resolves bottom-up as it does for a
		// shared range's issue order.
		lo, hi, ok = t.stat.take()
	} else {
		lo, hi, ok = t.grab(buf)
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

// grab claims the thread's next chunk. On a shared range that is one pop. On
// per-thread ranges the thread pops from its own, and when that is dry sweeps
// the team for a victim, splits off the upper half of its range, keeps one
// policy-sized chunk and publishes the rest as its new range. Returning false
// means every range is empty — all iterations are claimed — so the loop is
// exhausted for this thread.
func (t *Thread) grab(b *dispatchBuf) (int64, int64, bool) {
	if !b.stealing {
		return b.pop(0)
	}
	if lo, hi, ok := b.pop(t.Tid); ok {
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
		size := b.pol.nextChunk(shi - slo)
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

// pop claims a policy-sized chunk from the front of range i: the popping
// thread's own, or the team's ranges[0] when shared. A per-thread pop's CAS
// is uncontended unless a thief is splitting the range at this very moment.
func (b *dispatchBuf) pop(i int) (int64, int64, bool) {
	r := &b.ranges[i]
	for {
		w := r.bounds.Load()
		lo, hi := int64(w), b.trip
		if b.stealing {
			lo, hi = unpackRange(w)
		}
		if lo >= hi {
			return 0, 0, false
		}
		size := b.pol.nextChunk(hi - lo)
		next := uint64(lo + size)
		if b.stealing {
			next = packRange(lo+size, hi)
		}
		if r.bounds.CompareAndSwap(w, next) {
			return lo, lo + size, true
		}
		// A teammate popped, or a thief split the range, first; retry.
	}
}

// detach records that this thread has drained the loop; the last thread out
// frees the buffer for reuse by instance seq+ring.
func (t *Thread) detach(buf *dispatchBuf) {
	t.curLoop = nil
	// Attributed to the loop's own location so the profiler never shows an
	// unlocated loop-fini row.
	t.loopDone(buf.loc)
	if buf.done.Add(1) == int32(t.team.n) {
		buf.done.Store(0)
		buf.tag.Store(0)
		t.team.wakeTeam(t)
	}
}

// loopDone ends the thread's worksharing loop, static or dispatched; a
// recorded loop writes its loop-fini span, from DispatchInit to the drain.
func (t *Thread) loopDone(loc Ident) {
	t.inStatic = false
	t.curWsSeq = 0
	if g := eventGate.Load(); g != 0 && t.loopNs != 0 {
		t.event(g, TraceEvent{
			Kind: TraceLoopFini, Loc: loc, When: t.loopNs,
			Dur: TraceNow() - t.loopNs,
		})
	}
}
