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
//     Parallel, For, ParallelFor, Single, Masked, Sections, Critical,
//     Barrier, the explicit-tasking constructs (Task, Taskwait, Taskgroup,
//     Taskloop), the cancellation pair (Cancel, CancellationPoint) and the
//     reduction cells. These correspond to the paper's `.omp.internal`
//     namespace of generic wrappers over the __kmpc_* families — not
//     intended to be pretty for humans, but usable directly.
//
//   - The v2 library constructs, which only an importable package (not a
//     pragma) can express: error- and context-aware region launch
//     (ParallelErr, ParallelForErr, WithContext) that recovers worker
//     panics and tears teams down on deadline, and the type-safe generic
//     collection constructs (ForEach over any slice type, ReduceInto over
//     any Numeric type, the generic Reduction cell).
//
// # Loop scheduling
//
// Worksharing loops (For, ForRange, ParallelFor) take a Schedule option
// mirroring the schedule clause. Two execution engines back it:
//
//   - Stealing (nonmonotonic). Each team thread is seeded with its
//     contiguous static block of the iteration space as a splittable range.
//     It pops schedule-sized chunks from the front of its own range — the
//     hot path touches only thread-local state — and when dry steals the
//     upper half of a teammate's range. Dynamic, guided, trapezoidal and
//     auto schedules run here by default, as OpenMP 5.0's
//     nonmonotonic-by-default rule licenses.
//
//   - Shared counter (monotonic). The classic __kmpc_dispatch_next
//     protocol: one team-wide atomic iteration counter hands out chunks in
//     increasing order. Selected by the Monotonic modifier —
//     Schedule(Dynamic, 4, Monotonic) — and forced for loops carrying the
//     ordered clause, whose ticket protocol needs in-order chunks, and for
//     iteration spaces beyond 2³¹.
//
// Chunk sizing is a per-schedule policy over the remaining iterations:
// dynamic issues fixed chunks, guided a shrinking fraction of the
// remainder, trapezoidal a linear taper. schedule(auto) — formerly an alias
// of static — now means static seeding plus stealing: static's locality
// when the load is balanced, dynamic's rebalancing when it is not. Code
// that relied on auto's exact static block boundaries should say
// Schedule(Static, 0) explicitly.
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
// are released. Steals emit TraceLoopSteal events, observable through
// internal/trace's profiler (a "steals" column in the flat profile).
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
// plus the standalone Taskyield. Ordering rules are the standard's: a task
// with in on x runs after the last preceding sibling with out/inout on x;
// a task with out/inout on x additionally runs after every in task
// admitted since. Dependences order sibling tasks only — tasks of the same
// generating task region.
//
// The runtime (internal/kmp/taskdep.go) keeps a per-region hash table of
// last-writer/reader-set per dependence address. A dependent task holds an
// atomic count of unresolved predecessors and is withheld from the
// work-stealing deques until it reaches zero; completing a task releases
// its successors from whichever thread finished, and tasks with
// Priority(n) re-enter through a team-wide priority queue that every
// dequeue consults first. if(false) tasks with dependences wait at the
// spawn point (executing other ready tasks) as the standard requires, and
// cancelled tasks still release their successors, so DAGs compose with
// taskwait, taskgroup, cancellation, and WithContext teardown.
//
// The canonical wavefront — block (i,j) after blocks (i-1,j) and (i,j-1):
//
//	omp.Parallel(func(t *omp.Thread) {
//		omp.Single(t, func() {
//			for i := 0; i < nb; i++ {
//				for j := 0; j < nb; j++ {
//					i, j := i, j
//					opts := []omp.Option{omp.DependOut("self", &tok[i*nb+j])}
//					if i > 0 {
//						opts = append(opts, omp.DependIn("north", &tok[(i-1)*nb+j]))
//					}
//					if j > 0 {
//						opts = append(opts, omp.DependIn("west", &tok[i*nb+j-1]))
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
// # Loop transformations
//
// The preprocessor's tile and unroll directives (OpenMP 5.1) never reach
// this package at run time: they restructure the annotated loops into
// plain Go before outlining, and only the worksharing directive stacked
// above them lowers to runtime calls. What this package sees is the
// generated shape — for
//
//	//omp parallel for collapse(2)
//	//omp tile sizes(64,64)
//	for i := 0; i < n; i++ {
//		for j := 0; j < m; j++ { … }
//
// the ForRange iteration space is the 64×64 tile grid (one logical
// iteration per tile, TripCount over the grid loops' origins), and each
// chunk body runs whole tiles through the fringe-guarded point loops. A
// tile therefore behaves like a natural chunk: schedule clauses granulate
// in tiles, steals migrate tiles, and cancellation checks run between
// tiles, never inside one.
//
// Ordering rules for stacked directives, the remainder-loop semantics of
// partial unrolling, and the bare-unroll heuristics are documented in the
// repository root's doc.go ("Loop transformations") — the short form: the
// directive nearest the loop applies first, tile generates a nest a
// collapse can consume (at most its depth), unroll consumes the loop
// structure entirely and leaves a trip%factor scalar remainder loop.
//
// # Serving: warm regions and the fork fast path
//
// Parallel is cheap enough to sit on a request path. After the first
// region from a given goroutine, the runtime's team affinity hands the
// same warm team back on every subsequent fork: workers are already
// spawned (parked on an atomic generation word between regions), the
// barrier is already sized, and the whole fork/join round trip allocates
// nothing — including the common options (NumThreads up to 64, NoWait,
// OrderedClause, If), which are cached singletons, worksharing loops
// inside the region, and the fused ParallelFor/ParallelForRange, whose
// loop rides in the runtime's region descriptor. TestParallelWarmZeroAlloc
// and TestParallelForRangeWarmZeroAlloc pin the property;
// BenchmarkServingRegions measures many concurrent goroutines each
// running private regions, the serving shape.
//
// Two knobs matter for servers. OMP_WAIT_POLICY chooses how long a
// worker spins before parking between regions — passive (default) parks
// quickly and coexists with oversubscription; active trades CPU for
// latency. TrimTeams releases every idle cached team (workers exit,
// structures become garbage) for processes that have gone quiet; the
// next Parallel simply rebuilds from cold. Cancellable regions
// (SetCancellation(true)) and context-bound regions (WithContext) stay on
// the fast path; only the context watcher goroutine is an extra cost, paid
// per region, and only when a context is actually supplied.
//
// A minimal parallel dot product with a deadline:
//
//	ctx, stop := context.WithTimeout(context.Background(), 50*time.Millisecond)
//	defer stop()
//	dot := 0.0
//	err := omp.ReduceInto(omp.ReduceSum, &dot, int64(len(a)),
//		func(t *omp.Thread, i int64, acc float64) float64 {
//			return acc + a[i]*b[i]
//		}, omp.WithContext(ctx))
//
// err is context.DeadlineExceeded when the deadline tore the team down, and
// dot is then left untouched.
//
// # Observability
//
// Profile enables the process-wide profiler — an OMPT-style collector
// on the runtime's per-thread lock-free event rings — and returns the
// stop function that prints a gprof-style flat profile of every
// parallel region, worksharing loop and task construct, named by the
// user's file:line:
//
//	defer omp.Profile()()
//
// `gompcc -profile` injects exactly that call into main, plus
// `defer omp.ZoneAt(file, line, fn)()` into every pragma-containing
// function, so an annotated program self-reports without source
// changes. Two environment switches extend the report:
// GOMP_TRACE_JSON=<path> exports the full event timeline as Chrome
// trace-event JSON — load it at ui.perfetto.dev or chrome://tracing to
// see one track per runtime thread with work steals drawn as flow
// arrows — and GOMP_METRICS=1 appends the runtime metrics snapshot
// (fork / barrier / steal / task counters and wait-time histograms).
//
// The profiler reads the same per-thread event rings as the flight
// recorder below, drained at region joins ("Events" in internal/kmp's
// package doc); its cost on NPB CG class S is measured within noise
// against a <10% budget. Without a profiler, ZoneAt is a no-op.
//
// # Live monitoring
//
// ServeDebug mounts the runtime's /debug/gomp endpoint suite on a
// background HTTP server, so a long-running serving workload is
// scrapeable and inspectable without stopping it:
//
//	dbg, err := omp.ServeDebug("localhost:6060")
//	defer dbg.Close()
//
// endpoints: /debug/gomp/status (live teams and per-worker states,
// JSON), /debug/gomp/health (hang/deadlock diagnosis, JSON),
// /debug/gomp/flight (always-on event history), /debug/gomp/metrics
// (OpenMetrics / Prometheus text format), /debug/gomp/profile?seconds=N
// and /debug/gomp/timeline?seconds=N (on-demand capture windows),
// /debug/gomp/regions (per-region load imbalance and straggler blame),
// /debug/pprof/ (standard Go pprof), /debug/vars (expvar). Setting
// GOMP_DEBUG_ADDR=<addr> on a `gompcc -profile` build starts the same
// server automatically for the program's lifetime; ":0" picks an
// ephemeral port printed to stderr.
//
// A Prometheus scrape against /debug/gomp/metrics needs nothing
// special:
//
//	scrape_configs:
//	  - job_name: gomp
//	    metrics_path: /debug/gomp/metrics
//	    static_configs:
//	      - targets: ["localhost:6060"]
//
// Status sampling reads only per-thread atomic state words maintained
// on paths the runtime already executes, so scraping neither stops the
// world nor disturbs the allocation-free fork fast path.
//
// # Troubleshooting hangs
//
// A parallel program that stops making progress is the one situation a
// profiler you must enable in advance cannot help with, so the runtime
// keeps three always-on diagnostics:
//
// The flight recorder keeps each runtime thread's most recent events
// (fork, barrier, loop steal, task run, dependence stall and release;
// "Events" in internal/kmp's package doc) with no profiler installed,
// without breaking the zero-allocation fork fast path: 256 records per
// thread by default, GOMP_FLIGHT=<n> or SetFlightRingSize resizes,
// GOMP_FLIGHT=off or SetFlightRecorder(false) disables. Snapshot it
// with DumpDiagnostics(w), scrape /debug/gomp/flight, or — after
// HandleSIGQUIT (or GOMP_SIGQUIT=1) — interrogate a wedged process the
// classic way:
//
//	kill -QUIT <pid>    # full diagnostic dump to stderr
//
// The watchdog. StartWatchdog(threshold) (GOMP_WATCHDOG=30s from the
// environment; 0 selects the 10s default) samples the per-worker state
// words and the task-dependence tables. A worker sitting in one barrier
// or steal sweep, unmoved, past the threshold trips it; a dependence
// cycle among withheld tasks — two sibling tasks whose depend clauses
// wait on each other, a proof of deadlock — trips it immediately. The
// trip handler (yours via StartWatchdogConfig, or the default stderr
// report) receives a HangReport naming each stuck worker's region and
// each cycle's pragma locations:
//
//	hang report (threshold 10s):
//	  dependence cycle (deadlock): lu.go:41 inout:a -> lu.go:47 inout:b -> lu.go:41 inout:a
//
// The same diagnosis is served continuously at /debug/gomp/health
// (?strict=1 turns unhealthy into HTTP 503, for liveness probes),
// exported as the gomp_health gauge and gomp_watchdog_trips_total
// counter, and appended as a WARNING footer to any profiler report
// produced while unhealthy. ReadHealth returns it in-process.
//
// pprof attribution. SetProfileLabels(true) (GOMP_PPROF_LABELS=1; also
// enabled for the duration of Profile) labels team goroutines with
// omp_region — the enclosing pragma's file:line — and omp_gtid, so
// `go tool pprof` CPU and goroutine profiles break down by parallel
// region. With ServeDebug mounted, /debug/pprof/goroutine?debug=1
// shows at a glance which region every parked worker is in.
//
// The usual diagnosis workflow: arm GOMP_WATCHDOG in production; on a
// trip, read the hang report for who is stuck where (a dependence
// cycle is definitive — fix the depend clauses it names), then the
// flight-recorder tail for what the runtime did in the seconds before
// it wedged; /debug/pprof/goroutine tells you what the rest of the
// process was doing. `go run ./examples/diagnose` walks the complete
// loop against an injected deadlock.
package omp
