package main

import (
	"fmt"

	"gomp/internal/bench"
	"gomp/internal/npb"
)

// The three gated flavours every cycle runs once each.
const (
	fOmp      = iota // this repository's runtime, at T threads
	fSerial          // hand-written single-thread reference
	fBaseline        // idiomatic goroutines, at T threads
	nFlavours
)

var flavourNames = [nFlavours]string{"omp", "serial", "baseline"}

// instance is one workload with its inputs generated: what a set-up builds
// and the timed cycles then solve over and over.
type instance interface {
	// solve runs one flavour once on the given number of threads and
	// returns the timed seconds. The output stays in the instance.
	solve(flavour, threads int) (float64, error)
	// verify checks the output the last solve of that flavour left behind
	// against a reference the flavour did not compute.
	verify(flavour int) error
	// work returns the operations and bytes one solve performs, computed
	// from the input sizes (not measured).
	work() (ops, bytes float64)
	// close releases what gen created outside the heap.
	close()
}

// runEnv is what a workload may know about the run it is part of.
type runEnv struct {
	threads int     // T
	root    string  // checkout root, absolute
	scratch string  // private directory under <root>/.bench_build, absolute
	builds  int     // generated modules written under scratch so far
	tr      *tracer // nil outside the traced pass
}

// workload is one row of the benchmark.
type workload struct {
	name string
	// cycles is the fixed number of timed cycles per 10 s of -seconds:
	// tuned once so the timed phase takes about that long on the
	// reference host, then frozen, so both commits do identical work.
	cycles int
	// gen generates the inputs from the seed. It is the first step of
	// every cold set-up.
	gen func(env *runEnv, seed uint64) (instance, error)
}

var workloads = []workload{
	{"npb_cg", 44, func(*runEnv, uint64) (instance, error) { return &npbInstance{kernel: "cg", class: npb.ClassS}, nil }},
	{"npb_is", 22, func(*runEnv, uint64) (instance, error) { return &npbInstance{kernel: "is", class: npb.ClassW}, nil }},
	{"loops_steal", 60, func(_ *runEnv, seed uint64) (instance, error) { return genLoops(seed, false), nil }},
	{"loops_ordered", 60, func(_ *runEnv, seed uint64) (instance, error) { return genLoops(seed, true), nil }},
	{"region_storm", 44, func(_ *runEnv, seed uint64) (instance, error) { return genStorm(seed), nil }},
	{"gompcc_build", 36, genBuild},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// npbInstance runs an NPB kernel through the evaluation harness. NPB
// inputs are fixed by the NPB specification, so the seed is not used and
// every solve regenerates them inside bench.Run; the timed seconds are the
// kernel's internal timer, the paper's protocol, which excludes input
// generation and verification.
type npbInstance struct {
	kernel string
	class  npb.Class
	last   [nFlavours]npb.Result
}

var npbImpl = [nFlavours]string{"omp", "serial", "goroutines"}

func (n *npbInstance) solve(flavour, threads int) (float64, error) {
	res, err := bench.Run(n.kernel, npbImpl[flavour], n.class, threads)
	n.last[flavour] = res
	return res.Seconds, err
}

// verify reports the kernel's own NPB verification (published zeta for CG,
// full sort verification for IS), which bench.Run performed after its timer
// stopped.
func (n *npbInstance) verify(flavour int) error {
	if r := n.last[flavour]; !r.Verified {
		return fmt.Errorf("%s class %s %s: NPB verification failed (%s)", n.kernel, n.class, r.Impl, r.Detail)
	}
	return nil
}

// work inverts the Mop/s figure the kernel reports into the NPB operation
// count and pairs it with the bytes the main arrays imply.
func (n *npbInstance) work() (ops, bytes float64) {
	r := n.last[fOmp]
	ops = r.MopsTotal * 1e6 * r.Seconds
	switch n.kernel {
	case "cg":
		// 15 power steps × 26 sparse mat-vecs over nnz ≈ 78 000 entries
		// (8-byte value + 4-byte column) plus ten 1400-element vectors
		// read or written per CG iteration.
		const nnz, na = 78148, 1400
		bytes = 15 * 26 * (nnz*12 + 10*na*8)
	case "is":
		// 10 rankings × 2^20 keys: read key, write bucketed key, read it
		// back, update a 4-byte count.
		bytes = 10 * (1 << 20) * 4 * 4
	}
	return ops, bytes
}

func (n *npbInstance) close() {}
