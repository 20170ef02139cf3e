package kmp

import "math"

// Static worksharing: schedule(static[,chunk]) loops, the thread-local
// engine behind DispatchInit/DispatchNext, mirroring
// __kmpc_for_static_init_* / __kmpc_for_static_fini. Static
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

// staticShare is a thread's share of a static loop: the pieces
// [next, next+size) clipped to end, next stepping by stride.
type staticShare struct{ next, size, stride, end int64 }

// staticMapping is the one static mapping, of schedule(static[, chunk])
// loops and of ordered static ones alike: thread tid's share of a
// trip-count iteration space. With no chunk (chunk <= 0) the share is the
// thread's balanced block (StaticBlock); otherwise chunk c goes to thread
// c mod nth, so thread tid owns chunks tid, tid+nth, tid+2·nth, …
func staticMapping(tid, nth int, trip, chunk int64) staticShare {
	if chunk <= 0 {
		lo, hi := StaticBlock(tid, nth, trip)
		return staticShare{lo, hi - lo, hi - lo, hi}
	}
	return staticShare{int64(tid) * chunk, chunk, int64(nth) * chunk, trip}
}

// take returns the share's next piece; ok is false once it is done.
func (s *staticShare) take() (lo, hi int64, ok bool) {
	if s.next >= s.end {
		return 0, 0, false
	}
	lo, hi = s.next, min(s.next+s.size, s.end)
	s.next += s.stride
	return lo, hi, true
}

// staticInit starts the thread's share of a static loop (DispatchInit): the
// __kmpc_for_static_init half. A static share needs no shared state, so the
// loop takes no dispatch buffer and stores to no line but the thread's own.
// A team of one runs the whole range as its block, whatever the schedule.
//
// The loop's participation span is what lets the profiler's imbalance
// analysis see a skewed static partition, attributed to the enclosing
// region. Only a collector gets it: a thread stuck inside a static loop never
// writes its span, so the flight recorder would gain nothing but two clock
// reads per thread per loop.
func (t *Thread) staticInit(trip, chunk int64) {
	n := t.team.n
	if n == 1 {
		chunk = 0
	}
	t.inStatic = true
	t.stat = staticMapping(t.Tid, n, trip, chunk)
	if t.team.cancellable && chunk <= 0 {
		// A cancellable team's block goes out in sub-chunks, each after a
		// cancellation check (staticNext): ~32 checks per block bound the
		// post-cancellation overshoot at ~3% of the thread's share without
		// measurably slowing the uncancelled path; the absolute cap keeps
		// the check interval tolerable when blocks are huge.
		t.stat.size = min(max((t.stat.size+31)/32, 1), 4096)
		t.stat.stride = t.stat.size
	}
	t.loopNs = 0
	if n > 1 {
		if g := eventGate.Load(); g&tagCol != 0 {
			t.loopNs = TraceNow()
		}
	}
}

// staticNext returns the next piece of the thread's static share, or ok ==
// false once the share is done or the loop cancelled, which ends the loop for
// the thread (the __kmpc_for_static_fini half).
func (t *Thread) staticNext() (lo, hi int64, ok bool) {
	if t.team.cancellable && t.loopCancelled() {
		t.loopDone(t.team.loc)
		return 0, 0, false
	}
	if lo, hi, ok = t.stat.take(); !ok {
		t.loopDone(t.team.loc)
	}
	return lo, hi, ok
}
