package kmp

// OpenMP cancellation (OpenMP 5.2 §11): the runtime half of the
// `cancel {parallel|for|taskgroup}` and `cancellation point` directives, and
// the teardown path of context-bound regions (ForkCallErr). Activation is a
// set of flags — one per team for the parallel construct, one per
// worksharing-loop instance, one per taskgroup — observed at the cancellation
// points the standard names: cancel / cancellation point directives, implicit
// and explicit barriers, and task scheduling points. Loop dispatch
// additionally checks between chunk grabs so a cancelled loop stops handing
// out iterations, mirroring libomp's __kmpc_cancel / __kmpc_cancellationpoint
// pair.
//
// Activation requires the team to be cancellable: either the cancel-var ICV
// (OMP_CANCELLATION) is set, or the region was launched through the
// error/context entry point, which is always cancellable so deadlines can
// tear the team down.

// CancelKind selects the construct a cancel or cancellation point binds to —
// the argument of the cancel directive.
type CancelKind int

const (
	// CancelParallel cancels the innermost enclosing parallel region: every
	// thread branches to the end of the region at its next cancellation
	// point, and unstarted explicit tasks of the region are discarded.
	CancelParallel CancelKind = iota + 1
	// CancelLoop cancels the innermost enclosing worksharing loop: no
	// further chunks are dispatched for that loop instance.
	CancelLoop
	// CancelTaskgroup cancels the innermost enclosing taskgroup: its
	// not-yet-started tasks (including descendants) are discarded.
	CancelTaskgroup
)

// String returns the directive-argument spelling.
func (k CancelKind) String() string {
	switch k {
	case CancelParallel:
		return "parallel"
	case CancelLoop:
		return "for"
	case CancelTaskgroup:
		return "taskgroup"
	}
	return "?"
}

// cancel activates region-level cancellation for the team. Idempotent and
// safe from any goroutine (the context watcher calls it from outside the
// team, and is quiesced before the team is recycled). The flag is part of
// every barrier wait predicate, so threads spinning there see it and parked
// ones are woken — no channel latch to close, so cancellable regions
// allocate nothing per fork.
func (tm *Team) cancel() {
	tm.cancelRegion.Store(true)
	tm.wakeTeam(nil)
}

// Cancel is the lowering of the `cancel` directive (__kmpc_cancel): it
// requests cancellation of the innermost enclosing construct of the given
// kind and reports whether the encountering thread must branch to that
// construct's end. False means cancellation is not active — the team is not
// cancellable, or (for taskgroup) no taskgroup is open — and execution
// continues normally, as the standard specifies for OMP_CANCELLATION=false.
func (t *Thread) Cancel(kind CancelKind) bool {
	if t == nil || t.team == nil || !t.team.cancellable {
		return false
	}
	tm := t.team
	if g := eventGate.Load(); g != 0 {
		t.event(g, TraceEvent{Kind: TraceCancel, Loc: tm.loc, When: TraceNow(), Arg0: int64(kind)})
	}
	switch kind {
	case CancelParallel:
		tm.cancel()
		return true
	case CancelLoop:
		if tm.cancelRegion.Load() {
			return true
		}
		if t.curWsSeq == 0 {
			return false // not inside a worksharing loop
		}
		// First cancel wins the single loop slot: a cancel on a later
		// nowait loop must not clobber (and thereby un-cancel) an earlier
		// instance that slower threads are still draining. The slot clears
		// at the next full barrier, when no thread can be inside an older
		// loop — between two barriers at most one loop cancellation is
		// tracked, and a second one is dropped, the conforming fallback
		// (activation simply does not occur).
		tm.cancelledLoop.CompareAndSwap(0, t.curWsSeq)
		return tm.cancelledLoop.Load() == t.curWsSeq
	case CancelTaskgroup:
		if tm.cancelRegion.Load() {
			return true
		}
		g := t.curGroup
		if g == nil {
			return false // not inside a taskgroup
		}
		g.cancelled.Store(true)
		return true
	}
	return false
}

// CancellationPoint is the lowering of the `cancellation point` directive
// (__kmpc_cancellationpoint): it reports whether cancellation of the given
// kind is active for the innermost enclosing construct, in which case the
// encountering thread must branch to that construct's end.
func (t *Thread) CancellationPoint(kind CancelKind) bool {
	if t == nil || t.team == nil {
		return false
	}
	switch kind {
	case CancelParallel:
		return t.team.cancelRegion.Load()
	case CancelLoop:
		return t.loopCancelled()
	case CancelTaskgroup:
		return t.team.cancelRegion.Load() || groupCancelled(t.curGroup)
	}
	return false
}

// loopCancelled reports whether the worksharing-loop instance the thread is
// currently executing — or its whole region — has been cancelled. Loop
// instances are identified by the per-thread worksharing sequence number,
// which the OpenMP same-sequence rule keeps in agreement across the team.
func (t *Thread) loopCancelled() bool {
	if t == nil || t.team == nil {
		return false
	}
	if t.team.cancelRegion.Load() {
		return true
	}
	seq := t.curWsSeq
	return seq != 0 && t.team.cancelledLoop.Load() == seq
}

// groupCancelled walks the taskgroup nesting chain: cancelling a group
// discards the unstarted tasks of every group nested inside it.
func groupCancelled(g *taskGroup) bool {
	for ; g != nil; g = g.parent {
		if g.cancelled.Load() {
			return true
		}
	}
	return false
}

// discarded reports whether a task must be skipped rather than executed:
// its region was cancelled, or any taskgroup enclosing it was.
func (n *taskNode) discarded() bool {
	if n.team != nil && n.team.cancelRegion.Load() {
		return true
	}
	return groupCancelled(n.group)
}
