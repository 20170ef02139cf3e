// Package kmp is a from-scratch Go reimplementation of the slice of LLVM's
// OpenMP runtime (libomp) that the paper's Zig compiler extension calls into.
//
// The paper lowers OpenMP pragmas to the __kmpc_* entry points of libomp:
//
//   - parallel regions   → __kmpc_fork_call          → ForkCall
//   - static loops       → __kmpc_for_static_init/fini → ForStatic / StaticBlock / StaticChunked
//   - dynamic/guided/runtime loops → __kmpc_dispatch_init/next → (*Thread).DispatchInit/DispatchNext
//   - barriers           → __kmpc_barrier            → (*Thread).Barrier
//   - critical           → __kmpc_critical           → Critical
//   - single / master    → __kmpc_single/master      → (*Thread).Single / Master
//   - explicit tasks     → __kmpc_omp_task           → (*Thread).TaskSpawn
//   - tasks with depend  → __kmpc_omp_task_with_deps → (*Thread).SpawnTask
//   - taskwait           → __kmpc_omp_taskwait       → (*Thread).Taskwait
//   - taskyield          → __kmpc_omp_taskyield      → (*Thread).Taskyield
//   - taskgroup          → __kmpc_taskgroup/end      → (*Thread).TaskgroupRun
//   - taskloop           → __kmpc_taskloop           → (*Thread).Taskloop
//
// This package provides those entry points natively: goroutine worker teams
// stand in for the pthread teams of libomp. Teams are "hot" — workers are
// created once and kept between parallel regions, exactly as libomp keeps
// its hot team — and the fork fast path is engineered so that a warm region
// costs zero heap allocations and no global locks (see the next section).
//
// # Hot teams and the fork fast path
//
// Team reuse is two-tiered (hotteam.go). The affinity tier maps the forking
// goroutine's id to the team it released last, in a sharded map, so a
// serving goroutine that opens region after region gets its own team back —
// workers already spawned, barrier already sized, caches already warm. The
// pool tier is a sharded free list that catches teams whose owner moved on
// and hands them to whichever root forks next, scanning the home shard
// first. Both tiers are capped (affinityCap, hotPoolCap, scaled by
// GOMAXPROCS); overflow is disposed rather than cached, and TrimTeams
// drains both tiers on demand for processes that have gone quiet.
//
// Between regions each worker goroutine waits on the team's generation word
// (see "Waiting" below). The word packs region counter and team size into
// one uint64, so a single atomic load tells a worker both "a new region
// started" and "whether it participates"; non-participating workers (the
// region shrank) go straight back to waiting without touching any region
// state.
//
// A warm fork therefore performs: one goroutine-id read (an assembly g
// pointer read on amd64/arm64, validated at init against the portable
// stack parse — goid_fast.go), one affinity-map hit, field stores for the
// region closure, one atomic generation publish, and wake sends to however
// many workers actually parked. Nothing allocates: cancellation is a flag
// in the barrier's wait predicate (cancel.go), the barrier is one
// sense-reversing atomic word (barrier.go), the join an atomic countdown,
// the serial one-thread path runs from a sync.Pool, and the error box is
// embedded in the team. The fork re-initialises only the per-region state
// the previous region touched (Team.dirty): a region that ran no dynamic
// loop, single or task pays for none of their buffers.
// TestWarmRegionZeroAlloc and BenchmarkForkJoin assert the invariant.
//
// Nested parallelism forks real inner teams (when max-active-levels
// allows) through the same pools, with team sizes debited against
// thread-limit-var by a global reservation counter (reserveThreads), so a
// contention group never oversubscribes its configured budget.
//
// # Waiting
//
// Every team rendezvous blocks in one loop, (*Thread).wait in wait.go: the
// worksharing/explicit barrier (predicate: generation changed, or region
// cancelled), the region join (predicate: the countdown of workers still in
// the region reached zero; only the master waits) and a worker's idle wait
// between regions (predicate: the generation word moved). No rendezvous
// polls a timer.
//
// Spin. The waiter first probes its predicate for a bounded time: 50 µs
// under OMP_WAIT_POLICY=passive (the default), 5 ms under active. Probes run
// back to back in blocks of 64 with one look at the clock per block, and a
// courtesy runtime.Gosched every fourth block so goroutines outside the
// team get the processor. The budget is what makes fine-grained loops
// fast: an arrival skew of a few µs between ≈10 µs phases (NPB CG) is
// absorbed by spinning instead of costing a sleep and a wake-up.
//
// Park and wake. When the budget runs out the waiter publishes its parked
// flag, re-checks the predicate, and blocks on its cap-1 token channel (one
// flag and one channel per Thread, allocated with it). Whoever makes a
// predicate true — the barrier's last arriver, the worker that takes the
// join count to zero, the master publishing a region, Team.cancel — stores
// to the predicate first and then loads the flags of the threads that may
// be waiting on it, sending a token (never blocking) to each that is set.
// The two sides form a Dekker pair over sequentially consistent atomics:
//
//	waiter: parked.Store(1) → pred() load     waker: pred store → parked.Load()
//
// so either the waiter sees the predicate true and does not block, or the
// waker sees the flag and sends. A waker that sees the flag of a thread
// which then did not block leaves one stale token behind; the next park
// consumes it, re-checks and blocks again. Tokens carry no meaning beyond
// "look again", which is why one waiter serves every predicate.
//
// Oversubscription. A team larger than GOMAXPROCS never spins: its waiters
// yield after every probe, because the thread they are waiting for may not
// have a processor. And any waiter, crowded team or not, whose yield took
// longer than 2 µs concludes that another goroutine needed the processor
// and parks at once (remembering it, so its next wait yields before it
// spins): concurrent teams and other goroutines are never starved by
// spinners for more than a block.
//
// Cost. Spinning replaces sleeping, so process CPU utilisation
// (proc.cpu_util in the benchmark) rises by design: a waiter holds its
// processor for up to the budget, and idle workers do so once after every
// region. OMP_WAIT_POLICY is the only control, as in libomp.
//
// # Explicit tasking
//
// Every deferred task lands on the creating thread's Chase–Lev
// work-stealing deque (taskdeque.go): the owner pushes and pops at the
// bottom in LIFO order (keeps recursive working sets cache-hot and bounds
// deque depth), while thieves steal the oldest task from the top in FIFO
// order (one steal takes the largest remaining subtree). All deque accesses
// are atomic, so the structure is lock-free and race-detector-clean; the
// one synchronised point is the CAS on top that decides ownership of a
// task, including the owner-vs-thief race for the last element.
//
// Completion follows two rules (task.go):
//
//   - taskwait waits for the *children* of the current task only — each
//     task carries a counter of its outstanding deferred children.
//   - taskgroup end waits for all *descendants* spawned in the group —
//     a task inherits its creator's group, so transitively created tasks
//     count against it too.
//
// Both waits, and every team barrier, are task scheduling points: a waiting
// thread executes ready tasks (the team's priority queue first, then its
// own deque, then steals round-robin from teammates) instead of spinning,
// so one producer thread plus an idle team drains any task tree. The
// implicit barrier at region end completes all outstanding tasks before
// ForkCall returns. if(false) and final tasks — and every descendant of a
// final task — execute undeferred on the spawning thread's stack; untied
// is accepted but executes tied, the conforming fallback (untied permits
// migration, it does not require it); mergeable is accepted but executes
// unmerged, the symmetric fallback.
//
// # Task dependences
//
// Tasks spawned with depend items (SpawnTask with TaskOpts.Deps) form a
// dataflow DAG resolved at runtime (taskdep.go): each task-generating
// region keeps a hash table from dependence address to last-writer and
// reader-set, a new task registers edges against those predecessors and
// holds an atomic unresolved-predecessor counter, and the task is withheld
// from the deques until the counter drains — predecessor completion walks
// the successor list and enqueues newly ready tasks from whichever thread
// finished last. Ready tasks carrying a priority clause route through a
// team-wide max-heap consulted before any deque. Discarded (cancelled)
// tasks still release their successors, so dependence DAGs compose with
// taskwait, taskgroup, cancellation, and region teardown. taskyield is one
// more task scheduling point: the thread may run a ready task before
// resuming.
//
// Because the evaluation machines for the original paper expose more
// hardware threads than typical CI hosts, teams may be larger than
// runtime.NumCPU(); every synchronisation primitive here is therefore safe
// under oversubscription (see "Waiting": spin phases are bounded, yield when
// the team is crowded, and fall back to parking).
//
// The schedule-kind constants reuse libomp's numeric values
// (kmp_sch_static_chunked = 33, ...), so traces of lowered programs can be
// compared against clang/flang -fopenmp output directly.
package kmp
