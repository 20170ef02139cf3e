// Package gomp is a from-scratch Go reproduction of "Pragma driven shared
// memory parallelism in Zig by supporting OpenMP loop directives"
// (Kacs, Lee, Zarins, Brown — EPCC; SC 2024 workshops; arXiv:2409.20148).
//
// The paper grafts OpenMP loop directives onto Zig — a language with no
// pragma mechanism — as special comments, lowered by a multi-pass
// preprocessor onto LLVM's OpenMP runtime, and evaluates the result on the
// NAS Parallel Benchmarks CG, EP and IS against Fortran and C references.
// This repository rebuilds every layer of that stack for Go:
//
//   - internal/core — the contribution: pragma tokeniser (keywords stay
//     identifiers), directive parser (including cancel and cancellation
//     point), bit-packed 32-bit clause encoding (extra_data emulation),
//     the source-to-source preprocessor over go/ast — one parse, a
//     directive tree, one lowering recursion where the paper rescans per
//     directive kind — and the loop-transformation engine (transform.go):
//     the OpenMP 5.1 tile and unroll directives over a loop-nest IR lifted
//     from ast.ForStmt headers, handed as IR to a worksharing directive
//     stacked above so that it distributes the generated loops (see "Loop
//     transformations" below).
//   - internal/kmp — the libomp analog: hot goroutine teams, ForkCall and
//     its error/context-aware sibling, one cancellation-aware barrier and
//     one spin-then-park waiter behind every rendezvous (barrier, join,
//     idle), static partitioning, the unified worksharing
//     engine (dynamic-family loops run work-stealing over static-seeded
//     per-thread ranges by default, with the shared-counter dispatch ring
//     kept as the monotonic:/ordered compliance path), the ordered
//     construct's ticket chain, criticals, locks, single/master,
//     threadprivate, OpenMP cancellation flags observed at every scheduling
//     point — chunk grabs and steals included — and the explicit-tasking
//     layer (task/taskwait/taskgroup/taskloop/taskyield) over per-thread
//     Chase–Lev work-stealing deques, with barriers doubling as task
//     scheduling points, plus the task-dependence subsystem: depend
//     (in/out/inout) clauses resolved by a per-region last-writer/
//     reader-set dependence table, tasks withheld from the deques on
//     atomic predecessor counters and released at predecessor completion,
//     and a team-wide priority queue for the priority clause.
//   - omp — the public, importable user-facing API (omp_* routines with
//     the prefix dropped), the structured constructs generated code
//     targets, and the v2 surface: context-aware error-returning region
//     launch, generic ForEach/ReduceInto, and Cancel/CancellationPoint.
//   - internal/atomicx — atomic cells with the paper's Listing 6 CAS-loop
//     lowering for multiply/divide/logical reductions.
//   - internal/npb{,/cg,/ep,/is} — the three benchmark kernels, each as
//     serial reference, omp-runtime port, and idiomatic-goroutine baseline.
//   - internal/fortran — the Section IV interop simulation (column-major
//     1-based arrays, trailing-underscore symbol mangling).
//   - internal/bench + cmd/npbsuite — the evaluation harness regenerating
//     the analogues of the paper's Tables I–III and Figures 3–5.
//
// The benchmarks in bench_test.go map one-to-one onto the paper's tables
// and figures (BenchmarkTable1CG … BenchmarkFig5IS) plus the ablations
// (BenchmarkAblation*), the rendezvous pair (BenchmarkBarrier,
// BenchmarkBarrierSkewed), the tasking pair
// (BenchmarkTaskFib, BenchmarkTaskloopVsFor) comparing the explicit-task
// subsystem against serial recursion and the loop-directive lowerings,
// BenchmarkImbalancedFor, the worksharing engine's headline number
// (monotonic shared-counter versus nonmonotonic stealing dispatch of a
// triangular workload), BenchmarkBlockedLU, the dependence subsystem's: a
// blocked LU factorisation as a dependence DAG versus the
// taskwait-per-level formulation (examples/wavefront is the corresponding
// stencil workload), and BenchmarkTiledMatmul, the loop-transformation
// subsystem's: cache-blocked matrix multiplication under the naive triple
// loop, the tile restructuring, and the distributed tile grid, all
// bitwise-verified (examples/tile is the corresponding walkthrough).
//
// # Loop transformations
//
// The tile and unroll directives (OpenMP 5.1, §9 of the 5.2 spec; the
// Kruse & Finkel loop-transformation pragma papers) are the only
// directives that do not lower to runtime calls: they rewrite the
// annotated canonical loop nest into restructured plain-Go loops. In the
// directive tree a transformation is the inner of the directive stacked
// above it, and is lowered first. Ordering rules for stacked directives
// follow from that:
//
//   - The directive nearest the loop applies first; each directive above
//     it applies to the loop(s) the transformation below generated. So
//     `parallel for collapse(2)` above `tile sizes(64,64)` distributes
//     the generated 64×64 tile grid, and `unroll` above `tile` unrolls
//     the generated grid loop.
//
//   - tile sizes(t1,…,tk) consumes a k-deep perfect rectangular nest and
//     generates a 2k-deep nest: k tile-grid loops (canonical worksharing
//     shape, stepping by ti over the level's logical iteration space)
//     over k point loops (tuple-init, hoisted min(origin+ti, trip)
//     fringe bound — correct for trip counts the sizes do not divide). A
//     collapse stacked above may name at most the k grid loops; deeper
//     collapses are rejected as non-canonical.
//
//   - unroll consumes the loop structure entirely: full expands a
//     constant-trip loop into straight-line blocks; partial(n) emits a
//     factor-stepped main loop with n body copies plus a scalar
//     remainder loop covering trip%n — so nothing can be stacked above
//     an unroll except another transformation's generated loop. Bare
//     unroll chooses heuristically: full for constant trips ≤ 16,
//     otherwise partial(4).
//
//   - A directive written between a transformation and its loop cannot
//     be applied to loops that no longer exist, so it is rejected with a
//     stack-it-above diagnostic instead.
//
// Branching that would change meaning under restructuring (return, break,
// goto out of the nest; continue and labels in duplicated unroll bodies)
// is rejected at preprocessing time.
//
// # Runtime architecture — hot teams, wait policy, fork fast path
//
// The paper's runtime never leaves one HPC kernel per process; this
// reproduction also targets the serving shape — thousands of concurrent
// requests each opening small parallel regions — which makes fork/join
// overhead and per-region garbage the governing costs. The runtime
// (internal/kmp) answers with hot teams: a finished region's team parks
// its worker goroutines and is cached in two tiers — the forking
// goroutine's slot in the thread registry, which hands the same team back
// to the same goroutine, and a sharded global pool for teams whose owner
// moved on — so a warm omp.Parallel or omp.ParallelFor performs no
// goroutine spawns, no global-lock acquisitions (the scheduler's included:
// GOMAXPROCS is sampled, and waiters probe before they yield), and zero
// heap allocations (asserted in CI by testing.AllocsPerRun). Workers between
// regions spin on an atomic generation word, then park on a
// flag-guarded channel; OMP_WAIT_POLICY (and the ICV) selects the spin
// budget — passive parks quickly and suits oversubscribed hosts, active
// holds the CPU longer for latency. Cancellation latches, barriers (central
// and tree), and the one-thread serial path are all allocation-free by the
// same discipline; omp.TrimTeams hands the cached teams back when a
// process goes quiet. Both caches are capped and nested regions debit a
// global thread-limit reservation, so the serving shape cannot
// oversubscribe. BenchmarkForkOverhead and BenchmarkServingRegions (and
// the npbsuite serving section of BENCH_<class>.json) measure the path;
// internal/kmp's package doc details the protocol and its memory-model
// argument.
//
// # Observability
//
// The paper's future-work item ("add support for profiling …
// instrument applications … functionality similar to that of gprof",
// Section VI) is an OMPT-style tools interface on the runtime, shaped
// like libomp's: one process-global tool pointer, event callbacks at
// the construct boundaries, near-zero cost when no tool is attached.
//
// The runtime half (internal/kmp) writes each event once, into one
// per-thread ring that both the always-on flight recorder and an
// installed collector read; "Events" in internal/kmp's package doc
// describes the gate, the ring, the collector's cursors and drop
// accounting, and the capacity rule. The switches: GOMP_FLIGHT=off|<n>
// (omp.SetFlightRecorder, omp.SetFlightRingSize) for the recorder,
// trace.New(trace.WithRingSize(n)).Start() or omp.Profile for a
// collector.
//
// The tools half (internal/trace) aggregates the stream three ways at
// once: a gprof-style flat profile per source region (Report), a
// metrics registry — counters, gauges and log2 histograms for forks,
// barrier-wait time, steals, task-queue depth and dependence stalls —
// exposed via expvar and a text snapshot (Metrics), and an optional
// retained timeline exported as Chrome trace-event JSON (WriteTimeline)
// loadable in Perfetto or chrome://tracing: one track per runtime
// thread, regions / loops / tasks as complete events named by the
// user's file:line, work steals as flow arrows from victim to thief.
// Region and task spans can also bridge into Go's own runtime/trace as
// user regions (WithGoTrace), so pragma-level activity lines up with
// goroutine scheduling in `go tool trace`.
//
// The compiler closes the loop: `gompcc -profile` injects
// `defer omp.ZoneAt(file, line, fn)()` into every pragma-containing
// function and `defer omp.Profile()()` into main — without shifting any
// line numbers, so the lowered constructs still report the user's real
// pragma locations — and the built program prints its own flat profile
// on exit (GOMP_TRACE_JSON=<path> adds the timeline, GOMP_METRICS=1 the
// metrics block).
//
// Measured cost on NPB CG class S (BenchmarkTable1CG vs
// BenchmarkTable1CGTraced): enabled collection stays within the
// documented <10% budget.
//
// # Live monitoring
//
// A serving process is inspectable over HTTP while it runs. Every
// pooled runtime thread maintains a packed atomic state word — activity
// (running / in-barrier / stealing / spinning / parked) plus an
// interned region-location id — updated with single owner-side stores
// on paths the thread already executes, so a sampler snapshots the
// whole runtime without stopping the world and without perturbing the
// allocation-free fork fast path. omp.ServeDebug (or GOMP_DEBUG_ADDR on
// a `gompcc -profile` build, or `npbsuite -serve`) mounts the suite:
//
//	/debug/gomp/status    live teams and per-worker state words (JSON)
//	/debug/gomp/health    watchdog / stuck-worker / dependence-cycle
//	                      diagnosis (JSON; ?strict=1 turns unhealthy
//	                      into HTTP 503 for liveness probes)
//	/debug/gomp/flight    always-on flight-recorder event history
//	/debug/gomp/metrics   the metrics registry in OpenMetrics /
//	                      Prometheus text exposition format
//	/debug/gomp/profile   ?seconds=N on-demand capture window → the
//	                      text report
//	/debug/gomp/timeline  ?seconds=N capture window → Chrome trace JSON
//	/debug/gomp/regions   per-region imbalance / blame analysis
//	/debug/pprof/         standard Go pprof, with omp_region/omp_gtid
//	                      labels when region labelling is on
//	/debug/vars           standard expvar, including the "gomp"
//	                      registry snapshot
//
// The analysis layer splits each region's busy time (loop participation
// plus task bodies) by worker and reports (max−mean)/mean imbalance,
// the straggler's global thread id with the teammate idle time it
// caused, measured barrier wait, and the what-if speedup (max/mean) a
// balanced redistribution would recover — the difference between "this
// region is slow" and "thread 4's block of the triangular loop makes
// everyone else wait, dynamic scheduling would buy 1.7x". See
// examples/monitor for a self-scraping demonstration.
//
// For the process nobody instrumented in advance, three always-on
// diagnostics remain available: the flight recorder (the most recent
// events of each thread's ring, readable with no profiler via
// omp.DumpDiagnostics, /debug/gomp/flight, or kill -QUIT after
// omp.HandleSIGQUIT), a hang/deadlock watchdog (GOMP_WATCHDOG,
// omp.StartWatchdog) that samples the state words and proves task-
// dependence deadlocks by finding cycles among withheld tasks — the
// trip report names the cycle's pragma locations — and pprof region
// labels (GOMP_PPROF_LABELS, omp.SetProfileLabels) that attribute CPU
// and goroutine profile samples to pragma file:line. The
// "Troubleshooting hangs" chapter in omp/doc.go walks the diagnosis
// workflow; examples/diagnose demonstrates it against an injected
// deadlock.
//
// # Build integration
//
// The paper's preprocessor story ends at single files; the module
// build driver (internal/driver, `gompcc -module`) is what makes the
// translation layer fast enough to sit inside a normal build over a
// whole module. A pass has four phases: a tree crawler that honours
// build constraints (go/build MatchFile) and skips vendor/, testdata/,
// hidden and underscore trees, _test.go files, prior <suffix>.go
// outputs and anything carrying the standard `// Code generated …
// DO NOT EDIT.` marker (which every driver output carries); a parallel
// transform fan-out across `-jobs` workers — run as an omp.ForEach on
// this repository's own runtime, so the driver dogfoods the stack it
// builds for and reports into the same metrics registry
// (driver-cold-files / driver-warm-files / driver-transform time under
// GOMP_METRICS); a content-hash cache; and atomic output writes
// (temp-file + rename, every gompcc mode), so an interrupted run never
// leaves a truncated output behind.
//
// The cache is a manifest at <module>/.gompcc-cache/manifest.json
// mapping each module-relative source path to the SHA-256 of its
// bytes, the action taken (transform / copy / skip) and its output
// path. Flag set and transform-engine version (core.EngineVersion) are
// manifest-wide: changing either discards the whole cache, because
// they affect every file alike. The manifest is timestamp-free and
// sorted, so it — like every output — is byte-identical at every
// `-jobs` value, and a warm run over an unchanged tree performs zero
// re-transforms. `-cache off` disables it; deleting the directory is
// always safe.
//
// Two output layouts: in-place (the default) writes <name>_omp.go
// siblings, the `gompcc -dir` convention; `-outdir root` mirrors the
// eligible sources under root — pragma-bearing files transformed in
// place of their originals, pragma-free files copied verbatim — giving
// a tree `go build` / `go vet` consume as-is (CI self-hosts the driver
// over examples/ this way). `-watch` turns the pass into an
// incremental loop: a portable mtime+size poll (no filesystem-event
// dependency) decides when to run, the content hashes decide what to
// transform, so a spurious wakeup costs one crawl and zero transforms.
//
// For builds that want no generated files at all there is the
// toolexec route:
//
//	go build -toolexec="gompcc -toolexec" ./...
//
// gompcc then wraps every toolchain invocation, preprocesses
// pragma-bearing compile inputs into a temporary directory and rewrites
// the argument slots, leaving link/asm/vet untouched. One requirement:
// a pragma-bearing file must already declare the runtime dependency —
// `import _ "gomp/omp"` — because the go command computes the build
// graph from the original sources (the way cgo requires import "C").
//
// BenchmarkDriverColdVsWarm tracks driver throughput (files/s) for the
// cold fan-out versus the warm hash-and-stat pass.
package gomp
