package kmp

import "sync/atomic"

// barrier is the team rendezvous: a sense-reversing central counter. The
// last thread to arrive resets the count, bumps the generation word and
// wakes whoever parked; everyone else waits (wait.go) until the generation
// changes — or the region is cancelled, since barriers are cancellation
// points and a cancelled team must not wait for threads that already
// branched to the region's end. Allocation-free, so warm regions —
// cancellable ones included — stay on the zero-allocation fork path.
//
// At the team sizes this reproduction can measure, tree and dissemination
// barriers never beat the central counter, so it is the only algorithm.
type barrier struct {
	count atomic.Int64
	_     pad // arrivals must not invalidate the line waiters spin on
	seq   atomic.Uint64
}

// wait blocks t until all tm.n threads have arrived or the region is
// cancelled. A cancelled region may leave count mid-generation; Team.reset
// re-arms it.
func (b *barrier) wait(t *Thread) {
	tm := t.team
	if tm.cancelRegion.Load() {
		return
	}
	// The generation must be sampled before arriving: after our increment
	// another thread may complete the barrier and bump it.
	s := b.seq.Load()
	if b.count.Add(1) == int64(tm.n) {
		// Every thread is inside the barrier, so none is inside a loop:
		// the releaser can retire the loop-cancellation slot for the next
		// batch of worksharing instances (see Thread.Cancel), then reset
		// the count before the release — a released thread may re-arrive
		// at the next generation instantly.
		if tm.cancelledLoop.Load() != 0 {
			tm.cancelledLoop.Store(0)
		}
		b.count.Store(0)
		b.seq.Add(1)
		tm.wakeTeam(t)
		return
	}
	t.wait(func() bool { return b.seq.Load() != s || tm.cancelRegion.Load() })
}
