// Package kmp is a from-scratch Go reimplementation of the slice of LLVM's
// OpenMP runtime (libomp) that the paper's Zig compiler extension calls into.
//
// The paper lowers OpenMP pragmas to the __kmpc_* entry points of libomp:
//
//   - parallel regions   → __kmpc_fork_call          → ForkCall
//   - static loops       → __kmpc_for_static_init/fini → Loop / StaticBlock / StaticChunked
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
// Where a team comes from (hotteam.go, thread.go). Every goroutine that is
// inside a region or has forked one owns a slot in the thread registry, a
// sharded map keyed by goroutine id (an assembly g-pointer read on
// amd64/arm64, validated at init against the portable stack parse —
// goid_fast.go). The slot holds the thread the goroutine currently runs as
// — how Current and nested forks find their level — and the team it parked
// at its last join. A fork looks the slot up once, taking the parked team
// in the same critical section, and updates it through the pointer at join:
// a serving goroutine that opens region after region gets its own team back
// without touching a shared list or counter. Behind the slots sits a
// sharded free list for first-time forkers and overflow. Both tiers are
// capped (affinityCap, hotPoolCap, scaled by GOMAXPROCS); overflow is
// disposed, and TrimTeams drains both and drops the slots of goroutines
// that are gone. GOMAXPROCS is cached (procs): reading it takes the
// scheduler's global lock, so only cold paths do — a team changing shape,
// every procsRefresh-th region, TrimTeams.
//
// The handshake (team.go) is four cache lines, one writer each:
//
//   - the publish line holds gen alone. Idle workers spin on it; the owning
//     master stores to it once per region. One load tells a worker that a
//     region started and whether it takes part; a worker that does not (the
//     region shrank) goes back to waiting and touches nothing else.
//   - two descriptor lines hold what the region runs (work: a body, or the
//     loop of a fused parallel-for) and its shape (size, location, nesting
//     level, cancellable/catch). The master fills them in before the gen
//     store. The body is stored at every fork and cleared at the join, so
//     a parked team pins none of its caller's captures; the shape fields
//     are compared before each store, so a fork of the same shape as the
//     last one leaves that line shared in every cache.
//   - the join line holds done alone, a cumulative count only workers add
//     to. The master waits for it to reach joinAt, which it keeps on a line
//     of its own, so it never stores to the line its workers are about to.
//
// Ordering: the descriptor stores are plain; gen.Store after them is the
// release and the worker's gen.Load the acquire, so a worker that sees the
// new gen sees the whole descriptor. Back the other way each worker's
// done.Add follows its last use of the region, and the master's done.Load
// that observes joinAt precedes its next descriptor store, so the master
// never writes under a reader. Threads outside the region read no
// descriptor field; what an idle worker does consult (spinNs, sizeA) is
// atomic.
//
// The rest of a fork is thread-local or conditional. Each thread, the
// master included, resets its own per-region fields as it enters
// (Thread.enter), and a thread's first line (ids, parked flag) is never
// stored to per region, so wake's look at it is a cache hit. Team.reset
// re-initialises only what the previous region dirtied. Nothing allocates:
// cancellation is a flag in the barrier's wait predicate (cancel.go), the
// barrier one sense-reversing word (barrier.go), the one-thread path runs
// from a sync.Pool, the error box is embedded in the team.
// TestWarmRegionZeroAlloc, TestForkHandshakeLayout and BenchmarkForkJoin
// (read against BenchmarkCrossCoreFloor) hold the design to this.
//
// # Waiting
//
// Every team rendezvous blocks in one loop, (*Thread).wait in wait.go: the
// worksharing/explicit barrier (predicate: generation changed, or region
// cancelled), the region join (done reached joinAt; only the master waits)
// and a worker's idle wait between regions (gen moved). No rendezvous polls
// a timer.
//
// Spin. The waiter first probes its predicate for a bounded time: 50 µs
// under OMP_WAIT_POLICY=passive (the default), 5 ms under active. The first
// spinQuiet probes (a few µs) are nothing but probes — no clock, no
// scheduler — which is where back-to-back regions and balanced barriers
// resolve, touching only the predicate's cache line. After that the waiter
// reads the clock once per spinBlock probes (≈0.5 µs) and calls
// runtime.Gosched every spinYieldEvery blocks, so goroutines outside the
// team get the processor; Gosched takes the scheduler's global lock, which
// is why it stays off the common path. The budget is what makes
// fine-grained loops fast: an arrival skew of a few µs between ≈10 µs
// phases (NPB CG) is absorbed by spinning instead of costing a wake-up.
//
// Park and wake. When the budget runs out the waiter publishes its parked
// flag, re-checks the predicate, and blocks on its cap-1 token channel (one
// flag and one channel per Thread, allocated with it). Whoever makes a
// predicate true — the barrier's last arriver, a worker counting out of the
// join, the master publishing a region, Team.cancel — stores to the
// predicate first and then loads the flags of the threads that may be
// waiting on it, sending a token (never blocking) to each that is set.
// The two sides form a Dekker pair over sequentially consistent atomics:
//
//	waiter: parked.Store(1) → pred() load     waker: pred store → parked.Load()
//
// so either the waiter sees the predicate true and does not block, or the
// waker sees the flag and sends. A stale token (the waiter did not block
// after all) is consumed by the next park, which re-checks and blocks
// again: tokens mean only "look again", which is why one waiter serves
// every predicate. The woken goroutine lands in the waker's run-next slot,
// so a waker that goes on to wait itself yields before it spins.
//
// Oversubscription. A team larger than GOMAXPROCS never spins: its waiters
// yield after every probe, because the thread they are waiting for may not
// have a processor. And any waiter, crowded team or not, whose yield took
// longer than 2 µs concludes that another goroutine needed the processor
// and parks at once (remembering it, so its next wait yields before it
// spins): other teams and goroutines are never starved by spinners for more
// than a few µs — which also covers a team whose cached GOMAXPROCS has gone
// stale.
//
// Cost. Spinning replaces sleeping, so process CPU utilisation
// (proc.cpu_util in the benchmark) rises by design: a waiter holds its
// processor for up to the budget, and idle workers do so once after every
// region. OMP_WAIT_POLICY is the only control, as in libomp.
//
// # Events
//
// The runtime reports what it does as TraceEvents — fork and join, barrier
// exit, loop init/steal/fini, task spawn/steal/run, dependence stall and
// release, taskgroup, taskloop, cancel — into one ring per thread
// (trace.go). The ring has two readers: the flight recorder (ReadFlight,
// flight.go), on unless GOMP_FLIGHT=off, and the installed Collector
// (SetCollector; the internal/trace profiler installs one).
//
// One gate. Every event site loads one process-wide word, eventGate. It is
// zero while the recorder is off and no collector is installed, and that
// load is then the site's whole cost. Otherwise it says whether the
// recorder is on, which collector is installed and how large rings are,
// and the site writes the event once, with (*Thread).event.
//
// Owner-only writes. Only the owning thread writes its ring: six atomic
// words into the next slot, then the new head; no lock, and no allocation
// once the ring exists. The oldest record is overwritten in place. Each
// record is tagged with whom it was written for — the recorder, the
// installed collector's id, or both. A reader copies a record and then
// re-reads the head; if the writer has begun reusing that slot, the record
// counts as overwritten. Readers therefore never see a torn record; at
// worst they lose the oldest ones. ReadFlight keeps the records tagged for
// the recorder, a collector those tagged with its id.
//
// Cursors and drops. A Collector owns no buffer, only a cursor per ring: a
// thread's first event after SetCollector(c) opens one at its head, and
// Flush — at every region join while c is installed, and on demand — hands
// the Sink the records from each cursor to its head, per ring and in
// emission order, and moves the cursor. Records overwritten before a Flush
// reached them are counted in Drops. c never receives what was recorded
// before it was installed or after it was uninstalled: those records lie
// below its cursors or carry another tag. A retired team's threads keep
// their cursors, so what they recorded for c is still delivered, or counted
// as dropped. After c is uninstalled and drained once, its cursors close:
// overwrites from then on are not of its records and are not counted.
//
// Capacity. A ring holds the recorder's size — DefaultFlightRecords, or
// GOMP_FLIGHT=<n>, or SetFlightRingSize — rounded to a power of two within
// [16, 65536]. While a collector is installed it holds the larger of that
// and the collector's size (NewCollector, trace.WithRingSize). A thread
// resizes its own ring at its first event after the size changed, keeping
// its newest records: a collector asking for 1<<16 records (~3 MiB a
// thread) loses nothing unless a thread records more than that between
// two drains. Rings shrink back after it is uninstalled.
//
// Spans. A span event (fork end, barrier, static loop fini, task run) is
// decided at its start and written at its end with the gate word loaded
// there. A dynamic loop's span is decided at DispatchInit and carried to
// its drain in Thread.loopNs (0: not recorded), so a span never starts
// before its construct.
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
