// Package npb provides the shared substrate of the NAS Parallel Benchmarks
// used in the paper's evaluation (Section V): the NPB pseudo-random number
// generator, problem classes, timers and result reporting.
//
// The three kernels the paper ports — CG, EP and IS — live in the
// subpackages npb/cg, npb/ep and npb/is, each in three flavours:
//
//   - a serial reference (RunSerial), standing in for the sequential truth;
//   - an OpenMP flavour (RunParallel), the paper's "Zig + OpenMP" side;
//   - an idiomatic goroutine implementation (RunGoroutines), playing the
//     "reference language" (Fortran/C + OpenMP) baseline the paper compares
//     against.
//
// The OpenMP flavour is gompcc output. Its parallel part is written once,
// as plain Go with //omp pragmas, in the package's _omp/parallel.go, and
// the package's //go:generate line turns it into the committed omp.go. The
// go tool ignores directories whose names begin with an underscore, so
// the source and its output, which define the same identifiers, never
// build together. This package's tests check that regenerating each omp.go
// gives the committed bytes and that each source, swapped in for it,
// builds as serial Go with its pragmas as comments.
//
// The serial references and the goroutine baselines are frozen: they are
// the denominators of the benchmark's speedup and vs_baseline ratios. The
// omp flavour is not; its annotated source may tune its per-thread code
// beyond the serial reference, as IS's rank (a block scan with its running
// total in a register) and CG's conj_grad (one bounds check per CSR row
// plus the gather) do, provided no result moves by a bit: the same ranks,
// the same floating-point operations in the same order.
// A speedup above the team size is therefore no error: the omp flavour's
// one-thread time over the serial reference's (the benchmark's
// omp.overhead_1t) measures the share that comes from the per-thread code,
// and reads below 1 where the tuning wins.
//
// All three are built from the NPB 3 problem statements; verification
// follows the official success criteria (CG: ζ against the published
// per-class constants at 1e-10; EP: sums against published constants at
// 1e-8; IS: full sortedness plus key-count conservation).
//
// All three kernels draw from one generator, NPB's 46-bit linear
// congruential scheme (rand.go). It is computed the way NPB's randi8
// variant computes it, in exact 64-bit integer arithmetic: about 2.5 ns a
// draw in Vranlc's batch loop on a 2-vCPU Intel Xeon, where NPB's portable
// double-precision randlc takes about 40 ns and yields the same bits. The
// difference matters most to EP, which is the generator plus a Gaussian
// transform, and to the cold set-up of IS, which draws four numbers per
// key.
package npb
