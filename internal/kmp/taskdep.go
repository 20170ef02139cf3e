package kmp

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Task dependences (OpenMP 5.2 §15.9.5): the runtime half of the
// depend(in/out/inout) clause — the analog of libomp's __kmpc_omp_task_with_deps
// and kmp_taskdeps.cpp. The depend clause turns a flat bag of sibling tasks
// into a dataflow DAG: a task naming an address with `in` must run after the
// last task that named it `out`/`inout`; a task naming it `out`/`inout` must
// additionally run after every `in` task admitted since.
//
// The machinery has three parts:
//
//   - A dependence hash table per task-generating region, keyed on the
//     dependence addresses (pointer identity of the `any` values the API
//     hands down). Each entry is a depEntry tracking the last writer
//     (out/inout) and the reader set (in) admitted since that writer — the
//     last-writer/reader-set scheme libomp uses. The table hangs off the
//     *parent* task: OpenMP dependences order only sibling tasks, and only
//     the thread executing the parent spawns its children (tasks are tied
//     and run to completion), so registration needs no lock.
//
//   - A depState per dependent task: an atomic counter of unresolved
//     predecessors plus a mutex-guarded successor list and done flag. The
//     mutex closes the classic race between a predecessor completing and a
//     successor registering against it: edges are only added while the
//     predecessor is not yet done.
//
//   - Withholding: a task with unresolved predecessors is NOT pushed onto
//     any work-stealing deque at spawn. Its completion bookkeeping
//     (children / taskgroup / team counters) is armed as usual, so
//     taskwait, taskgroup ends and barriers wait for it; the push happens
//     when its predecessor count reaches zero, from whichever thread
//     completed the last predecessor. Counting starts from a creation
//     reference of one, released after all edges are registered, so
//     predecessors finishing mid-registration cannot enqueue the task
//     twice or early.
//
// Discarded tasks (cancelled region or taskgroup) still run the release
// protocol: their successors must not be stranded withheld — they are
// enqueued and then discarded at their own scheduling point, which keeps
// the completion counters draining under cancellation.

// DepMode is the dependence type of one depend item.
type DepMode uint8

const (
	// DepIn is depend(in: x): ordered after the last out/inout task on x.
	DepIn DepMode = iota + 1
	// DepOut is depend(out: x): ordered after the last out/inout task on x
	// and after every in task admitted since.
	DepOut
	// DepInOut is depend(inout: x): same ordering constraints as DepOut.
	DepInOut
)

// String returns the clause spelling.
func (m DepMode) String() string {
	switch m {
	case DepIn:
		return "in"
	case DepOut:
		return "out"
	case DepInOut:
		return "inout"
	}
	return "?"
}

// DepSpec is one depend item as the public API hands it down: a dependence
// address (pointer identity of Addr is the key — two &x of the same
// variable compare equal) plus the mode.
type DepSpec struct {
	Addr any
	Mode DepMode
}

// depState is the dependence-resolution record of one task that carries a
// depend clause. Tasks without depend clauses never allocate one — they can
// neither have predecessors nor successors.
type depState struct {
	mu         sync.Mutex
	done       bool        // completion protocol ran; no more edges may be added
	successors []*taskNode // tasks withheld (at least partly) on this one
	// undeferred marks a waiter-managed task: the encountering thread is
	// parked in waitDeps and will run the body itself, so the release
	// protocol must only decrement npred, never enqueue the node — an
	// enqueued undeferred node has no fn and would double-execute the
	// construct.
	undeferred bool
	// npred counts unresolved predecessors plus the creation reference.
	// For deferred tasks the transition to zero — and only that
	// transition — enqueues the task.
	npred atomic.Int32
}

// depEntry is the per-address dependence record of one task-generating
// region: the last writer and the readers admitted since.
type depEntry struct {
	lastOut *taskNode
	readers []*taskNode
}

// depTable returns the parent task's dependence hash table, created on
// first use. Owner-only: called by the thread executing the parent.
func (n *taskNode) depTable() map[any]*depEntry {
	if n.deps == nil {
		n.deps = make(map[any]*depEntry)
	}
	return n.deps
}

// addEdge orders node after pred: if pred has not completed, node joins
// pred's successor list and gains one unresolved predecessor. Duplicate
// edges are harmless — each occurrence is counted once at registration and
// released once at completion. Self-edges are skipped (libomp does the
// same): a task naming one address in several depend items — in plus out
// through the programmatic API, which Validate's pragma-path duplicate
// check never sees — would otherwise become its own predecessor and be
// withheld forever.
func addEdge(pred, node *taskNode) {
	if pred == nil || pred == node || pred.dep == nil {
		return
	}
	d := pred.dep
	d.mu.Lock()
	if !d.done {
		d.successors = append(d.successors, node)
		node.dep.npred.Add(1)
	}
	d.mu.Unlock()
}

// registerDeps wires node into the parent's dependence DAG according to its
// depend items. The DAG cannot hold a cycle: edges only run from tasks
// already in the parent's table to the new one, so every edge points from
// an earlier spawn to a later one. Called on the spawning thread with the
// parent current, so table access is single-threaded; edge addition locks
// per-predecessor. The caller must have set node.dep and armed the
// creation reference.
func registerDeps(parent, node *taskNode, deps []DepSpec) {
	m := parent.depTable()
	for _, sp := range deps {
		e := m[sp.Addr]
		if e == nil {
			e = &depEntry{}
			m[sp.Addr] = e
		}
		switch sp.Mode {
		case DepIn:
			addEdge(e.lastOut, node)
			e.readers = append(e.readers, node)
		default: // DepOut, DepInOut
			addEdge(e.lastOut, node)
			for _, r := range e.readers {
				addEdge(r, node)
			}
			e.lastOut = node
			e.readers = nil
		}
	}
}

// depComplete runs the release half of the dependence protocol when a task
// finishes (or is discarded): mark done, detach the successor list, and
// enqueue every successor whose unresolved-predecessor count reaches zero.
// t is the thread running the completion — newly ready tasks go to its
// deque (owner-only push).
func (n *taskNode) depComplete(t *Thread) {
	d := n.dep
	if d == nil {
		return
	}
	d.mu.Lock()
	d.done = true
	succ := d.successors
	d.successors = nil
	d.mu.Unlock()
	released := int64(0)
	for _, s := range succ {
		if s.dep.npred.Add(-1) == 0 {
			released++
			if !s.dep.undeferred {
				t.deque.push(s)
			}
		}
	}
	if released > 0 && t.team != nil {
		// Ready work, or an undeferred task's waiter (waitDeps), may be
		// parked on: wake after the stores that made it visible.
		t.team.wakeTaskWaiters(t)
	}
	if g := eventGate.Load(); g != 0 && len(succ) > 0 {
		// Arg0 counts successors this completion made ready, Arg1 the
		// dependence edges it resolved — the release half of the
		// dependence-stall metric.
		t.event(g, TraceEvent{
			Kind: TraceTaskDepRelease, Loc: n.loc, When: TraceNow(),
			Arg0: released, Arg1: int64(len(succ)),
		})
	}
}

// releaseCreationRef drops the registration-time reference; returns true
// when the task is ready to run now (no unresolved predecessors remain).
func (n *taskNode) releaseCreationRef() bool {
	return n.dep.npred.Add(-1) == 0
}

// enqueueReady makes a ready task available to the team on this thread's
// own deque. Threads parked at a task scheduling point are woken to take it.
func (t *Thread) enqueueReady(n *taskNode) {
	t.deque.push(n)
	t.team.wakeTaskWaiters(t)
}

// waitDeps is the undeferred-task path: an if(0) or final task that carries
// depend items may not start until its predecessors complete (OpenMP 5.2
// §12.5: the encountering thread's wait is a task scheduling point), so the
// spawning thread executes other ready tasks until the count drains.
func (t *Thread) waitDeps(n *taskNode) {
	t.taskWait(func() bool { return n.dep.npred.Load() == 0 })
}

// ---------------------------------------------------------------- taskyield

// Taskyield is the standalone taskyield directive (__kmpc_omp_taskyield): a
// task scheduling point at which the thread may run other ready tasks
// before resuming the current one. Tasks here are tied — the current task
// cannot migrate — so the yield executes at most one other task to
// completion on this thread's stack, falling back to a goroutine yield when
// no task is ready (the conforming minimum: taskyield permits a switch, it
// does not require one).
func (t *Thread) Taskyield() {
	if t == nil || t.team == nil {
		return
	}
	if !t.runOneTask() {
		runtime.Gosched()
	}
}
