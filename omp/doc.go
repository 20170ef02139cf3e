// Package omp is the user-facing OpenMP API of this reproduction — the
// analog of the `omp` namespace the paper grafts onto the Zig standard
// library (Section III-C), promoted in v2 from internal/omp to an importable
// top-level package, with the omp_ prefix dropped exactly as the paper drops
// it: omp_get_thread_num becomes omp.GetThreadNum.
//
// Three layers coexist:
//
//   - The standard OpenMP runtime-library routines (GetThreadNum,
//     GetNumThreads, SetNumThreads, GetWtime, locks, schedule and
//     max-active-levels ICVs, cancellation state, …), callable from
//     anywhere. Inside a parallel region they resolve the calling
//     goroutine's thread via the registry; generated code uses the
//     explicit-context variants on *Thread, which are free of that lookup.
//
//   - The structured constructs the preprocessor lowers pragmas onto:
//     Parallel, ForStart/ForNext, Single, Masked, Sections, Critical,
//     Barrier, the
//     explicit-tasking constructs (Task, Taskwait, Taskgroup, Taskloop),
//     the cancellation pair (Cancel, CancellationPoint) and the reduction
//     fold (Reduce, ReduceBool). These correspond to the paper's
//     `.omp.internal` namespace of generic wrappers over the __kmpc_*
//     families — not intended to be pretty for humans, but usable directly.
//     ForRange, the fused ParallelFor and ParallelForRange and the
//     arrival-order Reduction cell are the hand-written forms.
//
//   - Error- and context-aware region launch (ParallelErr, WithContext),
//     which only an importable package (not a pragma) can express: it
//     recovers worker panics and tears teams down on deadline. A loop
//     inside it is a ForRange like any other.
//
// # Loop scheduling
//
// `//omp for` lowers to a ForStart/ForNext loop over the thread's chunks
// around the user's own loop. Worksharing loops take a Schedule option
// mirroring the schedule clause. Under a static schedule, and in a team of
// one, each thread computes its chunks from its number alone; the other
// kinds share one engine: every thread claims schedule-sized chunks by popping them off the
// front of a range of unclaimed iterations, in two configurations:
//
//   - Per-thread (nonmonotonic). Each team thread is seeded with its
//     contiguous static block of the iteration space as a splittable range.
//     Its pops touch only thread-local state, and when dry it steals the
//     upper half of a teammate's range. Dynamic, guided and auto schedules
//     run here by default, as OpenMP 5.0's nonmonotonic-by-default rule
//     licenses.
//
//   - Shared (monotonic). The whole team pops from one range and nobody
//     steals — the classic __kmpc_dispatch_next protocol, handing out chunks
//     in increasing order. Selected by the Monotonic modifier —
//     Schedule(Dynamic, 4, Monotonic) — and used for loops carrying the
//     ordered clause, whose ticket protocol needs in-order chunks, and for
//     iteration spaces of 2³¹ or more.
//
// Chunk sizing is a function of the remaining iterations alone: dynamic
// issues fixed chunks, guided a shrinking fraction of the remainder.
// schedule(auto) runs as guided with chunk 1 (GetSchedule still reports
// auto): each thread starts on its static block and halves what is left of
// it per claim, static's locality when the load is balanced and dynamic's
// rebalancing when it is not. Code that relies on static block boundaries
// should say Schedule(Static, 0).
//
// The OMP_SCHEDULE environment variable (and ParseSchedule) accepts the
// modifier prefix: "nonmonotonic:dynamic,4", "monotonic:guided".
//
// The ordered construct pairs with the ordered clause:
//
//	omp.ParallelFor(n, func(t *omp.Thread, i int64) {
//		v := compute(i)
//		omp.Ordered(t, func() { emit(v) }) // runs in iteration order
//	}, omp.OrderedClause(), omp.Schedule(omp.Dynamic, 4))
//
// Steal points remain cancellation points: a cancelled loop stops handing
// out chunks on both engines, and threads parked in an ordered ticket chain
// are woken and released, by `cancel for` as by `cancel parallel`. Steals
// emit TraceLoopSteal events, observable through internal/trace's profiler
// (a "steals" column in the flat profile).
//
// A loop under tile or unroll reaches this package in its generated shape:
// a tile is one logical iteration, so schedules granulate, steals migrate
// and cancellation checks run in whole tiles ("Loop transformations" in
// internal/core).
//
// # Reductions
//
// Every reduction clause lowers to one Reduce call per variable (ReduceBool
// for && and ||), made by every thread at the end of the construct with its
// private partial, which started at the operator's identity:
//
//	for lo, hi, ok := omp.ForStart(t, n); ok; lo, hi, ok = omp.ForNext(t) { … local += a[i] … }
//	omp.Reduce(t, omp.ReduceSum, &sum, local) // every thread then reads sum
//
// Each thread stores its partial's bits in a slot of its own and arrives at
// the barrier; the last to arrive folds sum + partial[0] + … +
// partial[n−1], in thread order, and only then releases the team. That is
// one barrier per variable, the one the construct already has, and the same
// bits at a given team size on every run. A reducing loop with nowait still
// takes its reduction's barrier, which conforms because every thread of the
// team meets the loop; a region-level reduction folds at the end of the
// body, before the join. A team of one, or an orphaned loop run outside any
// region, folds inline. Reduction[T] is the arrival-order atomic cell for
// combines no construct orders, such as explicit tasks adding results as
// they finish; its float results depend on timing.
//
// # Task dependences
//
// Tasks express dataflow DAGs through the depend clause — OpenMP 4.0's
// mechanism for wavefronts, blocked factorisations, and every workload
// whose ordering is a partial order taskwait/taskgroup can only
// over-serialise. The clause surface:
//
//	//omp task depend(in: a, b) depend(out: c) priority(2) mergeable
//	//omp taskyield
//
// and the equivalent options on omp.Task: DependIn, DependOut, DependInOut
// (one per variable; the variable's address is the dependence identity, so
// sibling tasks naming the same storage are ordered), Priority, Mergeable,
// plus the standalone Taskyield. Priority, Mergeable and Untied are
// accepted hints the runtime does not act on: ready tasks run in the same
// order whatever their priority, as in libomp while max-task-priority-var
// keeps its initial value, 0. Ordering rules are the standard's: a task
// with in on x runs after the last preceding sibling with out/inout on x;
// a task with out/inout on x additionally runs after every in task
// admitted since. Dependences order sibling tasks only — tasks of the same
// generating task region.
//
// The runtime (internal/kmp/taskdep.go) keeps a per-region hash table of
// last-writer/reader-set per dependence address. A dependent task holds an
// atomic count of unresolved predecessors and is withheld from the
// work-stealing deques until it reaches zero; completing a task releases
// its successors from whichever thread finished onto that thread's deque.
// if(false) tasks with dependences wait at the spawn point (executing other
// ready tasks) as the standard requires, and cancelled tasks still release
// their successors, so DAGs compose with taskwait, taskgroup, cancellation,
// and WithContext teardown.
//
// The canonical wavefront — block (i,j) after blocks (i-1,j) and (i,j-1):
//
//	omp.Parallel(func(t *omp.Thread) {
//		omp.Single(t, func() {
//			for i := 0; i < nb; i++ {
//				for j := 0; j < nb; j++ {
//					i, j := i, j
//					opts := []omp.Option{omp.DependOut(&tok[i*nb+j])}
//					if i > 0 {
//						opts = append(opts, omp.DependIn(&tok[(i-1)*nb+j]))
//					}
//					if j > 0 {
//						opts = append(opts, omp.DependIn(&tok[i*nb+j-1]))
//					}
//					omp.Task(t, func(*omp.Thread) { tile(i, j) }, opts...)
//				}
//			}
//			omp.Taskwait(t)
//		})
//	})
//
// Tiles release the moment their two predecessors finish — no per-diagonal
// barrier, no idle threads at the sweep's narrow ends. See
// examples/wavefront for the full program and internal/bench's blocked LU
// (BenchmarkBlockedLU) for the dependence-DAG-vs-taskwait comparison.
//
// # Errors and deadlines
//
// ParallelErr runs a region whose body returns an error; a worker's panic
// comes back as an error too, and WithContext tears the team down when its
// context ends. A parallel dot product with a deadline:
//
//	ctx, stop := context.WithTimeout(context.Background(), 50*time.Millisecond)
//	defer stop()
//	dot := 0.0
//	err := omp.ParallelErr(func(t *omp.Thread) error {
//		local := 0.0
//		omp.ForRange(t, int64(len(a)), func(lo, hi int64) {
//			for i := lo; i < hi; i++ {
//				local += a[i] * b[i]
//			}
//		}, omp.NoWait())
//		omp.Reduce(t, omp.ReduceSum, &dot, local)
//		return nil
//	}, omp.WithContext(ctx))
//
// err is context.DeadlineExceeded when the deadline tore the team down; dot
// then holds a partial sum and should be discarded.
//
// Regions are cheap enough for a request path: a warm one allocates
// nothing ("Hot teams and the fork fast path" in internal/kmp). Two knobs
// matter for servers. OMP_WAIT_POLICY chooses how long a worker spins
// before parking — passive (the default) parks quickly and coexists with
// oversubscription, active trades CPU for latency. TrimTeams releases every
// idle cached team when a process goes quiet.
//
// # Observability
//
// The paper's future-work item ("add support for profiling … instrument
// applications … functionality similar to that of gprof", Section VI) is an
// OMPT-style tools interface, shaped like libomp's: one process-global tool,
// event records at the construct boundaries, near-zero cost when none is
// attached. Profile starts the process-wide profiler and returns the stop
// function that prints a gprof-style flat profile of every parallel region,
// worksharing loop and task construct, named by the user's file:line:
//
//	defer omp.Profile()()
//
// `gompcc -profile` injects exactly that call into main, plus
// `defer omp.ZoneAt(file, line, fn)()` into every pragma-containing
// function — without shifting a line, so the lowered constructs still
// report the user's pragma locations — and an annotated program
// self-reports without source changes:
//
//	gompcc -profile -o out/app.go app.go
//	GOMP_TRACE_JSON=trace.json GOMP_METRICS=1 go run ./out
//
// GOMP_TRACE_JSON=<path> exports the event timeline as Chrome trace-event
// JSON — load it at ui.perfetto.dev or chrome://tracing for one track per
// runtime thread, regions, loops and tasks named by file:line, and work
// steals drawn as flow arrows from victim to thief. GOMP_METRICS=1 appends
// the metrics registry — counters, gauges and log2 histograms for forks,
// barrier-wait time, steals, task-queue depth and dependence stalls — as
// the OpenMetrics exposition /debug/gomp/metrics serves. Each report has
// one rendering: the flat profile is Profiler.Report's text, the metrics
// leave as that exposition or as a Go MetricsSnapshot, the timeline as
// Chrome JSON (internal/trace). examples/profile shows all three over an
// NPB CG run. The running profiler is the one last started, by Profile or
// trace.New(...).Start(), until it stops; a /profile or /timeline window
// reads its event stream beside it, and starts a profiler of its own only
// when none runs.
//
// Cost. The runtime writes each event once, into a per-thread ring that the
// profiler and the flight recorder (below) both read ("Events" in
// internal/kmp); the profiler drains the rings at region joins. Enabled
// collection stays within a <10% budget on NPB CG class S
// (BenchmarkTable1CGTraced against BenchmarkTable1CG, a CI step), and
// trace.WithRingSize(n) sizes the rings while a profiler runs. Events
// overwritten before a drain are counted, never waited for, and reported
// as a WARNING footer on the text report and as
// gomp_trace_dropped_events_total in the metrics. Without a profiler,
// ZoneAt is a no-op.
//
// # Live monitoring
//
// ServeDebug mounts the runtime's /debug/gomp endpoint suite on a
// background HTTP server, so a long-running workload is inspectable
// without stopping it:
//
//	dbg, err := omp.ServeDebug("localhost:6060")
//	defer dbg.Close()
//
// GOMP_DEBUG_ADDR=<addr> on a `gompcc -profile` build starts the same
// server for the program's lifetime (":0" picks a port, printed to
// stderr). The endpoints:
//
//	/debug/gomp/status    live teams and per-worker states (JSON)
//	/debug/gomp/health    watchdog / stuck-worker diagnosis (JSON;
//	                      ?strict=1 answers 503 when unhealthy, for
//	                      liveness probes)
//	/debug/gomp/flight    the flight recorder's event history (JSON;
//	                      DumpDiagnostics prints it as a table)
//	/debug/gomp/metrics   the metrics registry, OpenMetrics text
//	/debug/gomp/profile   ?seconds=N capture window → text report
//	/debug/gomp/timeline  ?seconds=N capture window → Chrome trace JSON
//	/debug/gomp/regions   per-region imbalance and blame (JSON, below)
//	/debug/pprof/         standard Go pprof, with omp_region/omp_gtid
//	                      labels when region labelling is on
//
// Every pooled runtime thread keeps a packed atomic state word — activity
// (running, in barrier, stealing, spinning, parked) plus an interned region
// location — updated by owner-side stores on paths it already executes, so
// sampling stops nothing and the fork fast path stays allocation-free. A
// Prometheus scrape needs nothing special:
//
//	scrape_configs:
//	  - job_name: gomp
//	    metrics_path: /debug/gomp/metrics
//	    static_configs:
//	      - targets: ["localhost:6060"]
//
// /debug/gomp/regions splits each region's busy time (loop participation
// plus task bodies) by worker; the text report from Profile or
// /debug/gomp/profile ends with the same rows as a table:
//
//	imbalance  workers  max-busy   mean-busy  blame   blame-idle  bar-wait   what-if  region
//	     0.72        4   177.5ms     103.1ms  g4       297.7ms     0.011ms    1.72x  monitor.go:2 skewed triangular
//	     0.01        4   145.2ms     143.5ms  g3         6.7ms     0.008ms    1.01x  monitor.go:1 balanced sweep
//
// imbalance is (max−mean)/mean busy time (0.75 in theory for a triangular
// loop split statically over four threads); blame names the straggler whose
// block the rest of the team waits for, and blame-idle the teammate idle
// time it caused (Σ max−busy_i); what-if is max/mean, the speedup a balanced
// redistribution (a dynamic schedule, smaller chunks) would recover.
// examples/monitor scrapes its own endpoints and checks that the skewed
// loop is the one blamed.
//
// # Troubleshooting hangs
//
// A parallel program that stops making progress is the one situation a
// profiler you must enable in advance cannot help with, so the runtime
// keeps three always-on diagnostics.
//
// The flight recorder keeps each runtime thread's most recent events
// (fork, barrier, loop steal, task run, dependence stall and release;
// "Events" in internal/kmp) with no profiler installed, without breaking
// the zero-allocation fork fast path: 256 records per thread by default,
// GOMP_FLIGHT=<n> resizes, GOMP_FLIGHT=off or SetFlightRecorder(false)
// disables. A run of back-to-back regions at one location and team size is
// one record, marked ×N with its region count, so a region storm leaves the
// history before it in place. Read it from a live process at
// /debug/gomp/flight, from a wedged one with DumpDiagnostics(os.Stderr), or
// on a watchdog trip, which dumps it.
//
// The watchdog. StartWatchdog(threshold) (GOMP_WATCHDOG=30s from the
// environment; 0 selects the 10s default) samples the per-worker state
// words. A worker sitting in one barrier or steal sweep, unmoved, past the
// threshold trips it, once per stall. A depend chain whose head never
// finishes shows up the same way, as its teammates waiting in the region's
// barrier; depend clauses cannot wait on each other in a cycle, because a
// task only ever waits on siblings spawned before it. The trip handler
// (yours via StartWatchdogConfig, or the default stderr report followed by
// DumpDiagnostics) receives a HangReport naming each stuck worker's state
// and region:
//
//	gomp: WATCHDOG TRIP — runtime appears hung
//	hang report (threshold 10s):
//	  worker g6 (tid 1) in-barrier for 10.002s in lu.go:41 parallel
//
// The same diagnosis is served at /debug/gomp/health, exported as the
// gomp_health gauge and the gomp_watchdog_trips_total counter, and appended
// as a WARNING footer to any profiler report produced while unhealthy.
// ReadHealth returns it in-process.
//
// pprof attribution. SetProfileLabels(true) (GOMP_PPROF_LABELS=1; also on
// for the duration of Profile) labels team goroutines with omp_region —
// the enclosing pragma's file:line — and omp_gtid, so `go tool pprof` CPU
// and goroutine profiles break down by parallel region. With ServeDebug
// mounted, /debug/pprof/goroutine?debug=1 shows which region every parked
// worker is in.
//
// The workflow: arm GOMP_WATCHDOG in production; on a trip, read the hang
// report for who is waiting where (the teammate missing from that barrier
// is the one to look at), then the flight-recorder tail for what the
// runtime did in the seconds before it wedged; /debug/pprof/goroutine tells
// you what the missing thread is blocked on. `go run ./examples/diagnose`
// walks the loop against a planted barrier stall.
package omp
