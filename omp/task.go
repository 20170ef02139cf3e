package omp

import "gomp/internal/kmp"

// Explicit tasking constructs: the user-facing lowering targets of
// `//omp task`, `//omp taskwait`, `//omp taskgroup`, `//omp taskloop` and
// `//omp taskyield`. The runtime behind them (internal/kmp/task.go) runs
// per-thread work-stealing deques; team barriers double as task scheduling
// points, so a single thread may spawn a whole task tree and the rest of
// the team drains it. Tasks carrying depend options form a dataflow DAG
// resolved by the runtime's dependence engine (internal/kmp/taskdep.go):
// a task is withheld from the deques until every predecessor completes.

// Final is the final clause: when cond is true the task — and every task it
// creates, transitively — executes undeferred on the spawning thread. The
// standard cut-off switch for recursive decomposition.
func Final(cond bool) Option {
	return func(c *config) { c.finalClause = cond; c.hasFinal = true }
}

// Untied, Mergeable and Priority are the untied, mergeable and priority
// clauses: permissions and a hint that the runtime accepts and does not act
// on, which the standard allows. A task runs to completion on the thread
// that dequeued it (untied permits migration, it does not require it) and
// unmerged (closure capture already shares the data environment a merged
// task would reuse). Ready tasks leave the pool in the same order whatever
// their priority, as in libomp while max-task-priority-var keeps its
// initial value, 0, which clamps every priority(n) to 0. Priority's n is
// evaluated, as the clause's expression is, and then dropped.
func Untied() Option { return ignoredOpt }

// Mergeable is the mergeable clause; see Untied.
func Mergeable() Option { return ignoredOpt }

// Priority is the priority(n) clause; see Untied.
func Priority(n int) Option { return ignoredOpt }

var ignoredOpt Option = func(*config) {}

// Grainsize is the taskloop grainsize(n) clause: chunks of about n
// iterations per task. Mutually exclusive with NumTasks.
func Grainsize(n int64) Option { return func(c *config) { c.grainsize = n } }

// NumTasks is the taskloop num_tasks(n) clause: n balanced chunk tasks.
// Mutually exclusive with Grainsize.
func NumTasks(n int64) Option { return func(c *config) { c.numTasks = n } }

// NoGroup is the taskloop nogroup clause: do not wait for the chunk tasks
// at the end of the construct (completion moves to the next taskwait,
// taskgroup end or barrier).
func NoGroup() Option { return func(c *config) { c.nogroup = true } }

// DependIn is depend(in: addr): the task reads the object at addr and is
// ordered after the last previously-spawned sibling task that declared
// DependOut/DependInOut on the same address. addr must be a pointer —
// pointer identity is the dependence address, so every task naming the same
// object must pass a pointer to the same storage (&x for the same x).
func DependIn(addr any) Option {
	return func(c *config) {
		c.deps = append(c.deps, kmp.DepSpec{Addr: addr, Mode: kmp.DepIn})
	}
}

// DependOut is depend(out: addr): the task writes the object at addr and is
// ordered after the last sibling writer and after every reader admitted
// since.
func DependOut(addr any) Option {
	return func(c *config) {
		c.deps = append(c.deps, kmp.DepSpec{Addr: addr, Mode: kmp.DepOut})
	}
}

// DependInOut is depend(inout: addr): the task both reads and writes the
// object at addr; same ordering constraints as DependOut.
func DependInOut(addr any) Option {
	return func(c *config) {
		c.deps = append(c.deps, kmp.DepSpec{Addr: addr, Mode: kmp.DepInOut})
	}
}

// Task spawns body as an explicit task: the lowering of `//omp task`.
// t must be the calling thread (nil outside any parallel region, where the
// task executes immediately). body receives the thread that eventually
// executes the task — for a stolen task a different one than t — so nested
// constructs inside the body bind to the executor.
//
// An If(false) or Final(true) task is undeferred: it executes on the
// calling thread before Task returns, as the standard requires.
func Task(t *Thread, body func(t *Thread), opts ...Option) {
	var c config
	c.apply(opts)
	if c.loc.Region == "" {
		c.loc.Region = "task"
	}
	undeferred := c.hasIf && !c.ifClause
	final := c.hasFinal && c.finalClause
	if t == nil || t.Team() == nil {
		// Outside any team: the initial thread runs the task inline.
		// Program order is creation order, a valid topological order of
		// any dependence DAG, so depend options are trivially satisfied.
		body(t)
		return
	}
	t.SpawnTask(c.loc, body, kmp.TaskOpts{
		Undeferred: undeferred,
		Final:      final,
		Deps:       c.deps,
	})
}

// Taskwait blocks until all child tasks spawned by the current task have
// completed: the lowering of `//omp taskwait`. While waiting, the thread
// executes other ready tasks.
func Taskwait(t *Thread) { t.Taskwait() }

// Taskyield is the standalone `//omp taskyield` directive: a task
// scheduling point at which the thread may execute another ready task
// before resuming the current one. Outside any team it is a no-op.
func Taskyield(t *Thread) { t.Taskyield() }

// Taskgroup runs body and then waits for every task spawned inside it,
// including transitively created descendants: the lowering of
// `//omp taskgroup`.
func Taskgroup(t *Thread, body func(), opts ...Option) {
	var c config
	c.apply(opts)
	if c.loc.Region == "" {
		c.loc.Region = "taskgroup"
	}
	t.TaskgroupRun(c.loc, body)
}

// Taskloop chunks [0, trip) into explicit tasks: the lowering of
// `//omp taskloop`, and a second, task-granular scheduling strategy for
// loops next to ForRange's static/dynamic dispatch. body receives each chunk
// with the thread executing it. Granularity comes from Grainsize or
// NumTasks (default: two chunks per team thread); the call waits for all
// chunks unless NoGroup is given.
func Taskloop(t *Thread, trip int64, body func(t *Thread, lo, hi int64), opts ...Option) {
	var c config
	c.apply(opts)
	if c.loc.Region == "" {
		c.loc.Region = "taskloop"
	}
	undeferred := c.hasIf && !c.ifClause
	if t == nil || !t.InParallel() {
		if trip > 0 {
			body(t, 0, trip)
		}
		return
	}
	t.Taskloop(c.loc, trip, c.grainsize, c.numTasks, c.nogroup, undeferred, body)
}
