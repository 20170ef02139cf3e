// Package gomp is a from-scratch Go reproduction of "Pragma driven shared
// memory parallelism in Zig by supporting OpenMP loop directives"
// (Kacs, Lee, Zarins, Brown — EPCC; SC 2024 workshops; arXiv:2409.20148).
//
// The paper grafts OpenMP loop directives onto Zig — a language with no
// pragma mechanism — as special comments, lowered by a preprocessor onto
// LLVM's OpenMP runtime, and evaluates the result on the NAS Parallel
// Benchmarks CG, EP and IS. This repository rebuilds each layer for Go.
// Each topic is told once, in the package comment of the layer that owns
// it; this comment is the map:
//
//   - internal/core — the contribution: the pragma tokeniser, parser and
//     validator, and the preprocessor that lowers a file's directive tree
//     in one pass. Its comment has the directive and clause table, the
//     lowering and "Loop transformations" (tile, unroll).
//   - internal/driver — gompcc's three ways into a build: one file, a
//     mirror of a module, go build -toolexec ("Build integration").
//   - cmd/gompcc — the preprocessor command over core and driver.
//   - internal/kmp — the libomp analog: hot goroutine teams, one barrier and
//     one spin-then-park waiter behind every rendezvous, one worksharing-loop
//     protocol, reductions folded in thread order, tasks with dependences,
//     cancellation and the per-thread event rings. Its comment has "Hot
//     teams and the fork fast path", "Waiting" and "Events".
//   - omp — the public API that generated code and users call: the omp_*
//     routines with the prefix dropped, the constructs pragmas lower onto,
//     error- and context-aware regions. Its comment has loop scheduling,
//     "Observability", "Live monitoring" and "Troubleshooting hangs".
//   - internal/trace — the tools layer behind omp's observability: flat
//     profiler, metrics registry, timeline export, /debug/gomp handlers and
//     the diagnostics dump.
//   - internal/npb, internal/npb/{cg,ep,is} — the three kernels, each a
//     frozen serial reference, an omp flavour generated by gompcc from
//     _omp/parallel.go, and a goroutine baseline.
//   - internal/bench, cmd/npbsuite — the analogues of the paper's Tables
//     I–III and Figures 3–5.
//   - benchmark/ — the end-to-end harness that BENCHMARK.json declares.
//   - examples/ — runnable walkthroughs; annotated, pi, quickstart and
//     stencil carry their pragmas in their own source.
//
// The benchmarks in bench_test.go are the ones CI runs (go test -run '^$'
// -bench . -benchtime 1x .): Table I's CG cells without and with a
// collector, the worksharing, dependence, loop-transformation, atomic and
// driver headline numbers, and the fork/join and barrier costs.
package gomp
