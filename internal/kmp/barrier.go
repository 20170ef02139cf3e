package kmp

import "sync/atomic"

// barrier is the team rendezvous: a sense-reversing central counter. The
// last thread to arrive resets the count, bumps the generation word and
// wakes whoever parked; everyone else waits (wait.go) until the generation
// changes — or the region is cancelled, since barriers are cancellation
// points and a cancelled team must not wait for threads that already
// branched to the region's end. Barriers are task scheduling points too:
// the waiters run the team's ready tasks, and the last arriver completes
// every outstanding task before it releases. Allocation-free, so warm
// regions — cancellable ones included — stay on the zero-allocation fork
// path.
//
// At the team sizes this reproduction can measure, tree and dissemination
// barriers never beat the central counter, so it is the only algorithm.
type barrier struct {
	count atomic.Int64
	_     pad // arrivals must not invalidate the line waiters spin on
	seq   atomic.Uint64
}

// wait blocks t, which must be in StateInBarrier, until all tm.n threads
// have arrived and every task created before the barrier has completed, or
// until the region is cancelled; the last arriver runs a reduction's fold,
// if any, before the release, which publishes what it wrote. A cancelled
// region skips the fold and may leave count mid-generation; Team.reset
// re-arms it.
func (b *barrier) wait(t *Thread, fold func(Partials)) {
	tm := t.team
	if tm.cancelRegion.Load() {
		return
	}
	// The generation must be sampled before arriving: after our increment
	// another thread may complete the barrier and bump it.
	s := b.seq.Load()
	if b.count.Add(1) != int64(tm.n) {
		t.taskWait(func() bool { return b.seq.Load() != s || tm.cancelRegion.Load() })
		return
	}
	// Every thread has arrived, so no implicit task spawns any more, and a
	// running task counts its children before it finishes: the team count
	// reaching zero means every task created before the barrier completed.
	if tm.taskCount.Load() != 0 {
		t.taskWait(func() bool { return tm.taskCount.Load() == 0 || tm.cancelRegion.Load() })
		if tm.cancelRegion.Load() {
			return
		}
	}
	// Each thread deposited before its increment, which ours observes.
	if fold != nil {
		fold(Partials{ths: (*tm.thrA.Load())[:tm.n]})
	}
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
}

// Partials are what a reduction's fold reads: the bits each team thread
// deposited, in thread order, or a team of one's partial (one).
type Partials struct {
	ths []*Thread
	one uint64
}

// Len returns the number of partials, the team size.
func (p Partials) Len() int { return max(len(p.ths), 1) }

// At returns thread i's partial.
func (p Partials) At(i int) uint64 {
	if p.ths == nil {
		return p.one
	}
	return p.ths[i].red
}
