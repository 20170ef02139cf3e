package kmp

import "math"

// Static worksharing: the lowering target of schedule(static[,chunk]) loops,
// mirroring __kmpc_for_static_init_* / __kmpc_for_static_fini. Static
// partitioning needs no shared state — every thread computes its share from
// (tid, nthreads, trip) alone — which is why the paper notes that, unlike
// parallel regions, worksharing loops need no outlined function.
//
// All functions work in canonical iteration space: the preprocessor
// normalises a Go loop `for i := lo; i < hi; i += st` to trip =
// ceilDiv(hi-lo, st) iterations, runs the partition over [0, trip), and maps
// an iteration k back to i = lo + k*st. TripCount implements the
// normalisation including the <-vs-<= comparison-operator distinction the
// paper extracts from the while-loop header.

// Integer is the type set of a canonical loop's variable: any integer type.
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}

// TripCount returns the iteration count of the canonical loop
// `for i := lb; i CMP ub; i += st`, where inclusive selects <= (or >= for
// negative st) instead of < (>). The bounds compare in the loop variable's
// own type T; the distance between them is taken as a uint64, which holds
// it exactly for every T, so no intermediate value overflows. A zero st
// panics, and so does a count int64 cannot hold; a loop that never runs has
// trip 0.
func TripCount[T Integer](lb, ub T, st int64, inclusive bool) int64 {
	var dist, mag uint64 // distance to the bound in the direction of travel; |st|
	switch {
	case st > 0:
		if ub < lb || ub == lb && !inclusive {
			return 0
		}
		dist, mag = uint64(ub)-uint64(lb), uint64(st)
	case st < 0:
		if ub > lb || ub == lb && !inclusive {
			return 0
		}
		dist, mag = uint64(lb)-uint64(ub), -uint64(st)
	default:
		panic("kmp: loop increment must be non-zero")
	}
	// Iterations land at distance 0 and at each whole step after it, up to
	// the bound, which an exclusive loop stops short of.
	if !inclusive {
		dist--
	}
	steps := dist / mag
	if steps >= math.MaxInt64 {
		panic("kmp: loop iteration count overflows int64")
	}
	return int64(steps) + 1
}

// StaticBlock computes thread tid's contiguous block of a trip-count
// iteration space under schedule(static): the balanced partition libomp
// calls static_balanced, where the first trip%nth threads receive one extra
// iteration. Returns the half-open range [begin, end); begin == end when the
// thread has no work.
func StaticBlock(tid, nth int, trip int64) (begin, end int64) {
	if nth <= 1 {
		return 0, trip
	}
	q := trip / int64(nth)
	r := trip % int64(nth)
	if int64(tid) < r {
		begin = int64(tid) * (q + 1)
		end = begin + q + 1
	} else {
		begin = r*(q+1) + (int64(tid)-r)*q
		end = begin + q
	}
	return begin, end
}

// StaticChunked iterates thread tid's chunks of a trip-count iteration space
// under schedule(static, chunk): chunk c goes to thread c mod nth, so thread
// tid owns chunks tid, tid+nth, tid+2·nth, … body receives each chunk as a
// half-open range. The paper's IS port ranks its buckets under
// schedule(static,1), which degenerates to a pure cyclic distribution.
func StaticChunked(tid, nth int, trip, chunk int64, body func(begin, end int64)) {
	if chunk <= 0 {
		chunk = 1
	}
	stride := int64(nth) * chunk
	for lo := int64(tid) * chunk; lo < trip; lo += stride {
		hi := lo + chunk
		if hi > trip {
			hi = trip
		}
		body(lo, hi)
	}
}

// Loop executes thread t's share of a worksharing loop of trip iterations
// under sched: what every loop construct of the omp package lowers to. It
// performs no barrier — the caller decides, which is how the nowait clause
// is honoured (§III-A2 packs nowait as a single bit; the generated code
// simply omits the trailing Barrier call). A zero loc attributes the loop
// to the enclosing region. An orphaned or serialised loop (t nil, a team of
// one) runs the whole range on the caller through the static driver, whose
// cancellable path keeps observing deadlines and cancel directives.
func Loop(t *Thread, loc Ident, sched Sched, trip int64, body func(lo, hi int64)) {
	switch k := sched.Kind; {
	case !t.InParallel():
		forStatic(t, trip, 0, body)
	case sched.Ordered || (k != SchedStatic && k != SchedStaticChunked):
		ForDynamic(t, loc, sched, trip, body)
	default:
		forStatic(t, trip, sched.Chunk, body)
	}
}

// forStatic runs body over thread t's share of a trip-count iteration space
// under schedule(static[,chunk]) (chunk <= 0 selects the block partition):
// __kmpc_for_static_init/fini.
func forStatic(t *Thread, trip, chunk int64, body func(begin, end int64)) {
	tid, nth := 0, 1
	cancellable := false
	if t != nil && t.team != nil {
		tid, nth = t.Tid, t.team.n
		// Static loops count as worksharing instances too, so `cancel for`
		// can name them (cancel.go) — the counter advances identically on
		// every thread by the OpenMP same-sequence rule. The instance
		// context clears at loop exit: a Cancel(CancelLoop) issued between
		// loops must report "not inside a loop", not poison the slot with
		// a finished instance.
		t.wsSeq++
		t.curWsSeq = t.wsSeq
		// Static shares need no shared dispatch state, but their
		// per-thread participation span is what lets the profiler's
		// imbalance analysis see a skewed static partition; attributed to
		// the enclosing region (static loops carry no own Ident). Only a
		// collector gets it: a thread stuck inside a static loop never
		// writes its span, so the flight recorder would gain nothing but
		// two clock reads per thread per loop.
		var g uint64
		var start int64
		if nth > 1 {
			if g0 := eventGate.Load(); g0&tagCol != 0 {
				g, start = g0, TraceNow()
			}
		}
		defer func() {
			t.curWsSeq = 0
			if g != 0 {
				t.event(g, TraceEvent{
					Kind: TraceLoopFini, Loc: t.team.loc,
					When: start, Dur: TraceNow() - start,
				})
			}
		}()
		cancellable = t.team.cancellable
	}
	if cancellable {
		forStaticCancel(t, tid, nth, trip, chunk, body)
		return
	}
	if chunk > 0 {
		StaticChunked(tid, nth, trip, chunk, body)
		return
	}
	begin, end := StaticBlock(tid, nth, trip)
	if begin < end {
		body(begin, end)
	}
}

// forStaticCancel is forStatic for cancellable teams: the thread's share is
// delivered in bounded sub-chunks with a cancellation check between
// consecutive chunks, so a context deadline or a `cancel` directive stops a
// static loop at the next chunk boundary instead of running its whole block.
// Non-cancellable teams keep the single-call fast path above.
func forStaticCancel(t *Thread, tid, nth int, trip, chunk int64, body func(begin, end int64)) {
	if chunk > 0 {
		stride := int64(nth) * chunk
		for lo := int64(tid) * chunk; lo < trip; lo += stride {
			if t.loopCancelled() {
				return
			}
			body(lo, min(lo+chunk, trip))
		}
		return
	}
	begin, end := StaticBlock(tid, nth, trip)
	if begin >= end {
		return
	}
	// ~32 checks per block bounds the post-cancellation overshoot at ~3%
	// of the thread's share without measurably slowing the uncancelled
	// path; the absolute cap keeps the check interval tolerable when the
	// per-iteration body is expensive and blocks are huge.
	sub := (end - begin + 31) / 32
	if sub > 4096 {
		sub = 4096
	}
	if sub < 1 {
		sub = 1
	}
	for lo := begin; lo < end; lo += sub {
		if t.loopCancelled() {
			return
		}
		body(lo, min(lo+sub, end))
	}
}
