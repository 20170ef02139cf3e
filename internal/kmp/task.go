package kmp

import (
	"fmt"
	"sync/atomic"
)

// Explicit tasking: the analog of libomp's __kmpc_omp_task* entry points.
// Every explicit task becomes a taskNode pushed onto the creating thread's
// work-stealing deque (taskdeque.go), the team's one ready pool; threads
// execute their own newest tasks first and steal the oldest task of a
// teammate when their deque runs dry — at taskwait, at taskgroup ends, and
// at team barriers, which makes barriers task scheduling points as the
// standard requires: idle threads help drain the task pool instead of
// spinning.
//
// Completion bookkeeping uses two counters:
//
//   - taskNode.children counts outstanding *deferred child* tasks of one
//     task; Taskwait waits (executing other tasks) until the current task's
//     counter reaches zero. This is exactly taskwait's contract — children
//     only, not descendants.
//   - taskGroup.pending counts every task spawned inside the group,
//     transitively: a task created while executing a group member inherits
//     the member's group, so descendants are counted too, which is
//     taskgroup's (stronger) contract.
//
// A team-wide Team.taskCount makes the end-of-region and explicit barriers
// complete all outstanding tasks before any thread passes.
//
// Every task here executes tied — it runs to completion on the thread that
// dequeued it and never migrates mid-execution (Go has no continuation
// capture to migrate with) — and unmerged, and ready tasks leave the pool
// in deque order whatever their priority clause says: the untied, mergeable
// and priority clauses are permissions and hints, so ignoring them is
// conforming (omp.Untied).

// taskNode is one explicit task instance: libomp's kmp_taskdata_t reduced
// to what closure capture does not already carry.
type taskNode struct {
	fn     func(*Thread) // outlined task body, invoked with the executing thread
	parent *taskNode     // creating task (nil for a lazily-created implicit task's parent)
	group  *taskGroup    // innermost enclosing taskgroup at creation, nil if none
	team   *Team
	final  bool // final clause: all descendants execute undeferred

	// loc is the spawning construct's source location: task-run spans,
	// dependence releases, flight-recorder rows and hang reports all
	// attribute through it, so it is recorded unconditionally.
	loc Ident

	// Dependence machinery (taskdep.go): dep is non-nil iff this task
	// carries depend items; deps is the dependence hash table of the
	// task-generating region this task parents, keyed on dependence
	// addresses (lazily created, owner-only).
	dep  *depState
	deps map[any]*depEntry

	// children counts spawned-but-incomplete deferred child tasks.
	children atomic.Int32
}

// finish runs the completion protocol after fn returns (or the task is
// discarded). t is the thread running the completion: dependence release
// must come first — successors the release makes ready are enqueued through
// t — and before the counters drop, so a construct released by the counters
// can never observe a completed task with unreleased successors.
//
// A count reaching zero may end a task wait (taskWait): its waiters are
// woken after the store, as the barrier's last arriver wakes its peers.
func (n *taskNode) finish(t *Thread) {
	n.depComplete(t)
	zero := n.group != nil && n.group.pending.Add(-1) == 0
	if n.parent != nil && n.parent.children.Add(-1) == 0 {
		zero = true
	}
	if n.team != nil && (n.team.taskCount.Add(-1) == 0 || zero) {
		n.team.wakeTaskWaiters(t)
	}
}

// taskGroup is one active taskgroup region; groups nest by parent links.
// cancelled is set by `cancel taskgroup` (cancel.go): unstarted tasks of the
// group — and of every group nested inside it — are discarded at their next
// scheduling point instead of executing.
type taskGroup struct {
	pending   atomic.Int32
	cancelled atomic.Bool
	parent    *taskGroup
}

// currentTask returns the task the thread is executing, creating the
// region's implicit task on first use (implicit tasks exist only so that
// Taskwait has a children counter to watch).
func (t *Thread) currentTask() *taskNode {
	if t.curTask == nil {
		t.curTask = &taskNode{team: t.team}
	}
	return t.curTask
}

// TaskOpts carries the clause set of one task construct down to the
// runtime — the analog of the kmp_tasking_flags_t + dependence-array
// arguments of __kmpc_omp_task_with_deps.
type TaskOpts struct {
	// Undeferred is the if(false) clause: execute now, on the
	// encountering thread, after any dependences resolve.
	Undeferred bool
	// Final is the final clause: this task and all descendants execute
	// undeferred.
	Final bool
	// Deps are the depend clause items; a task with any is withheld from
	// the deques until every predecessor completes (taskdep.go).
	Deps []DepSpec
}

// SpawnTask creates an explicit task executing fn — __kmpc_omp_task, and
// __kmpc_omp_task_with_deps once o carries depend items. The task is
// deferred onto the calling thread's deque unless it must execute
// undeferred: if(false) tasks, final tasks and all descendants of final
// tasks (included tasks), and tasks created outside a multi-thread team,
// which all run immediately on the caller's stack.
//
// t must be the calling thread's own descriptor: the deque push is
// owner-only. Task bodies receive the executing thread, which for stolen
// tasks differs from t. loc is the construct's source position, attributed
// to the spawn trace event.
func (t *Thread) SpawnTask(loc Ident, fn func(*Thread), o TaskOpts) {
	parent := t.currentTask()
	// Task creation is a task scheduling point, hence a cancellation
	// point: once the region or an enclosing taskgroup is cancelled, new
	// tasks are discarded before they acquire any bookkeeping.
	if (t.team != nil && t.team.cancelRegion.Load()) || groupCancelled(t.curGroup) {
		return
	}
	if t.team != nil {
		t.team.touch(dirtyTasks)
	}
	inherit := parent.final
	if o.Undeferred || o.Final || inherit || t.team == nil || t.team.n == 1 {
		// Undeferred/included path: execute now, on this thread, with the
		// task still visible as the current task so that taskwait and
		// data-environment nesting behave as if it had been deferred. A
		// depend clause still orders the task after its predecessors: the
		// encountering thread waits — executing other ready tasks — until
		// they complete (OpenMP 5.2 §12.5), and the task must register as
		// a predecessor for later siblings, so the release protocol runs
		// after the body. On a serial team every sibling ran to completion
		// at its own spawn, so program order already satisfies any
		// dependence DAG and the bookkeeping is skipped entirely.
		node := &taskNode{parent: parent, group: t.curGroup, team: t.team, final: o.Final || inherit, loc: loc}
		serial := t.team == nil || t.team.n == 1
		if len(o.Deps) > 0 && !serial {
			node.dep = &depState{undeferred: true}
			node.dep.npred.Store(1)
			registerDeps(parent, node, o.Deps)
			if !node.releaseCreationRef() {
				if g := eventGate.Load(); g != 0 {
					// The encountering thread itself stalls on the
					// unresolved predecessors (OpenMP 5.2 §12.5).
					t.event(g, TraceEvent{
						Kind: TraceTaskDepStall, Loc: loc, When: TraceNow(),
						Arg0: int64(node.dep.npred.Load()),
					})
				}
			}
			t.waitDeps(node)
		}
		t.runTask(node, fn)
		node.depComplete(t)
		return
	}
	node := &taskNode{fn: fn, parent: parent, group: t.curGroup, team: t.team, loc: loc}
	parent.children.Add(1)
	if node.group != nil {
		node.group.pending.Add(1)
	}
	t.team.taskCount.Add(1)
	if g := eventGate.Load(); g != 0 {
		t.event(g, TraceEvent{
			Kind: TraceTaskSpawn, Loc: loc, When: TraceNow(),
			Arg0: int64(len(o.Deps)),
		})
	}
	if len(o.Deps) == 0 {
		t.enqueueReady(node)
		return
	}
	// Dependent task: withhold from the queues until the predecessor count
	// drains. The creation reference keeps concurrent predecessor
	// completions from enqueueing the task before registration finishes.
	node.dep = &depState{}
	node.dep.npred.Store(1)
	registerDeps(parent, node, o.Deps)
	if node.releaseCreationRef() {
		t.enqueueReady(node)
	} else if g := eventGate.Load(); g != 0 {
		// Withheld: the task stalls on unresolved predecessors — the
		// dependence-stall signal the profiler's DAG metrics count.
		t.event(g, TraceEvent{
			Kind: TraceTaskDepStall, Loc: loc, When: TraceNow(),
			Arg0: int64(node.dep.npred.Load()),
		})
	}
}

// runTask executes a task body on this thread with the task-environment
// stacking (current task, current group, worksharing-loop instance) saved
// and restored around it — a task executing at a scheduling point inside a
// loop must neither inherit nor clobber the interrupted loop's cancel
// context.
func (t *Thread) runTask(node *taskNode, fn func(*Thread)) {
	prevTask, prevGroup, prevWs := t.curTask, t.curGroup, t.curWsSeq
	t.curTask, t.curGroup, t.curWsSeq = node, node.group, 0
	fn(t)
	t.curTask, t.curGroup, t.curWsSeq = prevTask, prevGroup, prevWs
}

// runTaskRecover is runTask for catch-mode (ForkCallErr) teams: a panic in
// the task body becomes the team's first error plus region cancellation
// instead of killing the process. Deferred tasks execute at scheduling
// points — including the region-end drain, which lies outside the region
// body's own recovery — so the conversion must happen here, at the task
// boundary. The caller's finish() still runs, keeping the completion
// counters that taskwait/taskgroup/barriers watch consistent.
func (t *Thread) runTaskRecover(node *taskNode, eb *errBox) {
	prevTask, prevGroup, prevWs := t.curTask, t.curGroup, t.curWsSeq
	t.curTask, t.curGroup, t.curWsSeq = node, node.group, 0
	defer func() {
		t.curTask, t.curGroup, t.curWsSeq = prevTask, prevGroup, prevWs
		if r := recover(); r != nil {
			eb.set(fmt.Errorf("omp: panic in explicit task: %v", r))
			t.team.cancel()
		}
	}()
	node.fn(t)
}

// runOneTask pops or steals one ready task and executes it to completion.
// Returns false when no task was found anywhere in the team.
func (t *Thread) runOneTask() bool {
	node := t.deque.pop()
	g := eventGate.Load()
	if node == nil && t.team != nil {
		tm := t.team
		t.setWait(StateStealing)
		for i := 1; i < tm.n; i++ {
			victim := tm.threads[(t.Tid+i)%tm.n]
			if node = victim.deque.steal(); node != nil {
				if g != 0 {
					t.event(g, TraceEvent{
						Kind: TraceTaskSteal, Loc: node.loc, When: TraceNow(),
						Arg0: int64(victim.Gtid),
					})
				}
				break
			}
		}
		t.setWait(StateRunning)
	}
	if node == nil {
		return false
	}
	// Dequeue is a task scheduling point: tasks whose region or taskgroup
	// has been cancelled are discarded — completion bookkeeping runs so
	// the counters taskwait/taskgroup/barriers watch still drain (and
	// dependent successors are still released), but the body does not.
	if node.discarded() {
		node.finish(t)
		return true
	}
	var start int64
	if g != 0 {
		start = TraceNow()
	}
	if t.team != nil && t.team.catch {
		t.runTaskRecover(node, &t.team.ebox)
	} else {
		t.runTask(node, node.fn)
	}
	if g != 0 {
		// A complete task-execution span: When is the dequeue, Dur the
		// body time, Loc the spawning construct.
		t.event(g, TraceEvent{
			Kind: TraceTaskRun, Loc: node.loc, When: start, Dur: TraceNow() - start,
		})
	}
	node.finish(t)
	return true
}

// taskWait is a task scheduling point that lasts until done reports true:
// the thread waits (waitTask) for done or for ready work to appear, and runs
// ready tasks, as a running thread, while it finds some. It then returns to
// the caller's state (in-barrier for a barrier waiter) before it waits
// again. With no task in the team the wait costs one load of the team count
// per probe over done, and no store.
func (t *Thread) taskWait(done func() bool) {
	tm := t.team
	for {
		t.waitTask(func() bool { return done() || tm.taskCount.Load() != 0 && tm.readyWork() })
		if done() {
			return
		}
		s, _ := unpackStateWord(t.state.Load())
		t.setWait(StateRunning)
		for t.runOneTask() && !done() {
		}
		t.setWait(s)
	}
}

// readyWork reports whether some task is ready to run in any thread's
// deque.
func (tm *Team) readyWork() bool {
	for _, th := range tm.threads[:tm.n] {
		if th.deque.bottom.Load() > th.deque.top.Load() {
			return true
		}
	}
	return false
}

// Taskwait blocks until all child tasks of the current task have completed
// (__kmpc_omp_taskwait). It is a task scheduling point: while waiting, the
// thread executes other ready tasks — its own or stolen — so recursive
// divide-and-conquer patterns (spawn children, taskwait, combine) keep
// every thread busy.
func (t *Thread) Taskwait() {
	if t == nil || t.curTask == nil {
		return // no task has been spawned from this context
	}
	cur := t.curTask
	t.taskWait(func() bool { return cur.children.Load() == 0 })
}

// TaskgroupRun executes body inside a new taskgroup and then waits for
// every task spawned in the group, including transitively created
// descendants (__kmpc_taskgroup / __kmpc_end_taskgroup). The wait is a task
// scheduling point like Taskwait.
func (t *Thread) TaskgroupRun(loc Ident, body func()) {
	if t == nil {
		body()
		return
	}
	if g := eventGate.Load(); g != 0 {
		t.event(g, TraceEvent{Kind: TraceTaskgroup, Loc: loc, When: TraceNow()})
	}
	g := &taskGroup{parent: t.curGroup}
	t.curGroup = g
	body()
	t.curGroup = g.parent
	t.taskWait(func() bool { return g.pending.Load() == 0 })
}

// Taskloop carves [0, trip) into explicit tasks — __kmpc_taskloop, the
// chunk-granular lowering strategy for loops. Granularity: grainsize(g)
// yields ceil(trip/g) tasks of ~g iterations; num_tasks(n) yields n
// balanced tasks; with neither, two tasks per team thread (libomp's
// KMP_TASKLOOP num_tasks default). Unless nogroup is set the call waits for
// all chunks under an implicit taskgroup. undeferred (the if(false) clause)
// executes the whole loop immediately on the calling thread.
func (t *Thread) Taskloop(loc Ident, trip, grainsize, numTasks int64, nogroup, undeferred bool, body func(t *Thread, lo, hi int64)) {
	if trip <= 0 {
		return
	}
	if t == nil || t.team == nil || t.team.n == 1 || undeferred {
		body(t, 0, trip)
		return
	}
	if g := eventGate.Load(); g != 0 {
		t.event(g, TraceEvent{Kind: TraceTaskloop, Loc: loc, When: TraceNow(), Arg0: trip})
	}
	var chunks int64
	switch {
	case grainsize > 0:
		chunks = (trip + grainsize - 1) / grainsize
	case numTasks > 0:
		chunks = numTasks
	default:
		chunks = 2 * int64(t.team.n)
	}
	if chunks > trip {
		chunks = trip
	}
	if chunks < 1 {
		chunks = 1
	}
	spawn := func() {
		base, rem := trip/chunks, trip%chunks
		lo := int64(0)
		for c := int64(0); c < chunks; c++ {
			hi := lo + base
			if c < rem {
				hi++
			}
			clo, chi := lo, hi
			t.SpawnTask(loc, func(ex *Thread) { body(ex, clo, chi) }, TaskOpts{})
			lo = hi
		}
	}
	if nogroup {
		spawn()
	} else {
		t.TaskgroupRun(loc, spawn)
	}
}
