package kmp

import (
	"runtime"
	"time"
)

// The one wait loop of the runtime: every wait — worksharing and explicit
// barriers, the region join, a worker's idle wait for the next region, a
// loop's dispatch buffer, the ordered ticket, the task scheduling points —
// spins and then parks in (*Thread).wait, or in waitTask, its variant for
// the task scheduling points barriers included. See the "Waiting" section
// of the package comment for the predicates, who wakes each, and the
// memory-ordering argument.

// Spin budgets: how long a waiter probes its predicate before it parks. The
// passive budget covers the arrival skew of fine-grained loops several times
// over while staying below the cost of a park/unpark round trip through the
// Go scheduler; OMP_WAIT_POLICY=active keeps its standard meaning.
const (
	spinPassive = 50 * time.Microsecond
	spinActive  = 5 * time.Millisecond

	// spinQuiet is the number of back-to-back probes a waiter makes before
	// it first looks at the clock or the scheduler (≈2–4 µs). After it,
	// spinBlock probes (≈0.5 µs) separate two looks at the clock and
	// spinYieldEvery such blocks two yields, which let goroutines outside
	// the team (GC workers, other teams' late arrivers) onto the processor.
	spinQuiet      = 2048
	spinBlock      = 256
	spinYieldEvery = 8

	// spinContended is how long a yield may take before it is read as
	// "another goroutine needed this processor" (an uncontended
	// runtime.Gosched returns in ≈0.1 µs).
	spinContended = 2 * time.Microsecond
)

// wake unparks the thread if (and only if) it may be parked. It must be
// called after the store that makes the thread's predicate true. The send
// never blocks: a thread that raced past its parked flag leaves at most one
// stale token behind, which its next park consumes before re-checking. by is
// the waking thread (nil: none of the runtime's): the woken goroutine sits in
// its run-next slot, so by is marked contended and yields before it next spins.
func (t *Thread) wake(by *Thread) {
	if t.parked.Load() != 0 {
		select {
		case t.token <- struct{}{}:
		default:
		}
		if by != nil {
			by.contended = true
		}
	}
}

// setWaitPolicy fixes the spin budget of the team's waits.
func (tm *Team) setWaitPolicy(p WaitPolicy) {
	budget := spinPassive
	if p == WaitActive {
		budget = spinActive
	}
	if tm.spinNs.Load() != int64(budget) {
		tm.spinNs.Store(int64(budget))
	}
}

// wakeTeam wakes every parked thread of the current region except self (nil
// for a caller outside the team).
func (tm *Team) wakeTeam(self *Thread) {
	for _, th := range tm.threads[:tm.n] {
		if th != self {
			th.wake(self)
		}
	}
}

// wakeTaskWaiters wakes the parked threads of the current region that wait
// at a task scheduling point, a barrier included: a thread parked for the
// ordered ticket or the join does not look at tasks, and waking it for
// every spawn would cost the spawner a scheduler round trip each time.
func (tm *Team) wakeTaskWaiters(self *Thread) {
	for _, th := range tm.threads[:tm.n] {
		if th != self && th.taskWaiting.Load() != 0 {
			th.wake(self)
		}
	}
}

// wait blocks the thread until pred reports true: spin, then park.
func (t *Thread) wait(pred func() bool) {
	if !t.spin(pred) {
		t.park(pred)
	}
}

// waitTask is wait at a task scheduling point: pred must come true once a
// task is ready anywhere in the team. wakeTaskWaiters reaches the threads
// parked here: enqueueReady and depComplete call it after making a task
// ready, finish when a child, group or team count reaches zero. The
// taskWaiting flag is set only around the park, since only a parked thread
// needs a wake: it is stored before park's parked flag and its re-check of
// pred, and the wakers store before they read it, so one side sees the
// other.
func (t *Thread) waitTask(pred func() bool) {
	if !t.spin(pred) {
		t.taskWaiting.Store(1)
		t.park(pred)
		t.taskWaiting.Store(0)
	}
}

// spin probes pred for the team's spin budget and reports whether it came
// true. A team larger than GOMAXPROCS (as last sampled) yields the processor
// after every probe: the thread being waited for may not have one. Any
// spinner gives up early once a yield shows the processors contended.
func (t *Thread) spin(pred func() bool) bool {
	if pred() {
		return true
	}
	tm := t.team
	crowded := int64(tm.sizeA.Load()) > procs.Load()
	budget := tm.spinNs.Load()
	// eager: yield before spinning at all. Always for a crowded team; for
	// any other, only while the last yield showed the processors contended.
	eager := crowded || t.contended
	if !eager && budget > 0 {
		for i := 0; i < spinQuiet; i++ {
			if pred() {
				return true
			}
		}
	}
	now := TraceNow()
	deadline := now + budget
	for block := 0; now < deadline; block++ {
		if eager || block%spinYieldEvery == 0 {
			runtime.Gosched()
			if pred() {
				return true
			}
			// A slow yield means somebody ran in our place: the
			// processors are contended, and spinning on one only delays
			// whoever we are waiting for.
			t.contended = TraceNow()-now > int64(spinContended)
			if t.contended {
				return false
			}
			eager = crowded
		}
		if !crowded {
			for i := 0; i < spinBlock; i++ {
				if pred() {
					return true
				}
			}
		}
		now = TraceNow()
	}
	return pred()
}

// park blocks on the thread's token until pred is true. The flag store
// precedes the re-check of pred, and every waker stores to the predicate
// before it loads the flag, so one of the two sides always sees the other.
func (t *Thread) park(pred func() bool) {
	for {
		t.parked.Store(1)
		if pred() {
			t.parked.Store(0)
			return
		}
		<-t.token
		t.parked.Store(0)
		if pred() {
			return
		}
	}
}
