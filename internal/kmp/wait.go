package kmp

import (
	"runtime"
	"sync/atomic"
	"time"
)

// The one wait loop of the runtime: every team rendezvous — worksharing and
// explicit barriers, the region join, a worker's idle wait for the next
// region — blocks in (*Thread).wait. See the "Waiting" section of the package
// comment for the protocol and its memory-ordering argument.

// Spin budgets: how long a waiter probes its predicate before it parks. The
// passive budget covers the arrival skew of fine-grained loops (a few µs
// between ≈10 µs phases) several times over while staying below the cost of
// a park/unpark round trip through the Go scheduler; OMP_WAIT_POLICY=active
// keeps its standard meaning of "stay on the processor much longer".
const (
	spinPassive = 50 * time.Microsecond
	spinActive  = 5 * time.Millisecond

	// spinBlock is the number of back-to-back probes between two looks at
	// the clock; spinYieldEvery is the number of such blocks between two
	// yields, which let goroutines outside the team (GC workers, other
	// teams' late arrivers) onto the processor without putting a scheduler
	// round trip on every probe.
	spinBlock      = 64
	spinYieldEvery = 4

	// spinContended is how long a yield may take before it is read as
	// "another goroutine needed this processor" (an uncontended
	// runtime.Gosched returns in ≈0.1 µs).
	spinContended = 2 * time.Microsecond
)

// waiter is a thread's parking spot: a cap-1 token channel guarded by a
// Dekker-style parked flag. One per Thread, allocated with it, reused for
// every wait the thread ever performs.
type waiter struct {
	parked atomic.Uint32
	token  chan struct{} // cap 1: at most one stale token, consumed harmlessly
	// contended remembers that the thread's last yield took long enough for
	// another goroutine to have run (owner-only; see spin).
	contended bool
}

// wake unparks the thread if (and only if) it may be parked. It must be
// called after the store that makes the thread's predicate true. The send
// never blocks: a thread that raced past its parked flag leaves at most one
// stale token behind, which its next park consumes before re-checking.
func (t *Thread) wake() {
	if t.wt.parked.Load() != 0 {
		select {
		case t.wt.token <- struct{}{}:
		default:
		}
	}
}

// setWaitPolicy fixes how the waits of the next region of n threads behave.
func (tm *Team) setWaitPolicy(p WaitPolicy, n int) {
	budget := spinPassive
	if p == WaitActive {
		budget = spinActive
	}
	tm.spinNs.Store(int64(budget))
	tm.crowded.Store(n > runtime.GOMAXPROCS(0))
}

// wakeTeam wakes every parked thread of the current region except t itself.
func (tm *Team) wakeTeam(self *Thread) {
	for _, th := range tm.threads[:tm.n] {
		if th != self {
			th.wake()
		}
	}
}

// wait blocks the thread until pred reports true: spin, then park.
func (t *Thread) wait(pred func() bool) {
	if !t.spin(pred) {
		t.park(pred)
	}
}

// spin probes pred for the team's spin budget and reports whether it came
// true. A team larger than GOMAXPROCS yields the processor after every
// probe: the thread being waited for may not have one. Any spinner gives up
// early once a yield shows the processors contended.
func (t *Thread) spin(pred func() bool) bool {
	if pred() {
		return true
	}
	tm := t.team
	crowded := tm.crowded.Load()
	// eager: yield before spinning at all. Always for a crowded team; for
	// any other, only while the last yield showed the processors contended.
	eager := crowded || t.wt.contended
	now := TraceNow()
	deadline := now + tm.spinNs.Load()
	for block := 1; now < deadline; block++ {
		if eager || block%spinYieldEvery == 0 {
			runtime.Gosched()
			if pred() {
				return true
			}
			// A slow yield means somebody ran in our place: the
			// processors are contended, and spinning on one only delays
			// whoever we are waiting for.
			t.wt.contended = TraceNow()-now > int64(spinContended)
			if t.wt.contended {
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
	w := &t.wt
	for {
		w.parked.Store(1)
		if pred() {
			w.parked.Store(0)
			return
		}
		<-w.token
		w.parked.Store(0)
		if pred() {
			return
		}
	}
}
