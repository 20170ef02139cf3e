// Package ep implements the NPB Embarrassingly Parallel kernel: generate
// 2^(M+1) uniform deviates with the NPB LCG, turn them into Gaussian pairs
// by Marsaglia's polar method, and tally the pairs into ten square annuli —
// "compute performance alone, with no synchronisation required between the
// threads" (paper Section V-B). The Zig port in the paper exercises
// private/firstprivate clauses, a parallel-region reduction, and the
// threadprivate and atomic directives; the omp flavour here does the same.
//
// Each pair costs two generator draws and, for the π/4 ≈ 79 % of pairs the
// polar method accepts, a logarithm and a square root. With the integer
// generator (npb.Vranlc, about 2.5 ns a draw) the transform dominates. NPB's
// portable double-precision randlc costs about 40 ns a draw; with it the
// class S kernel took 1.86 s at one thread instead of 0.69 s, on a 2-vCPU
// Intel Xeon.
package ep

import (
	"fmt"
	"math"

	"gomp/internal/npb"
)

//go:generate go run gomp/cmd/gompcc -o omp.go _omp/parallel.go

// Batch geometry: NPB generates deviates in batches of 2^MK pairs so the
// scratch arrays stay cache-resident; each batch jumps the LCG to its own
// starting seed, which is what makes the loop embarrassingly parallel.
const (
	mk = 16      // log2 pairs per batch
	nk = 1 << mk // pairs per batch
	nq = 10      // annulus counters

	seedA = 1220703125.0 // multiplier (5^13)
	seedS = 271828183.0  // initial seed
)

// params returns M (log2 of the pair count) for an NPB class.
func params(class npb.Class) (m int, err error) {
	switch class {
	case npb.ClassS:
		return 24, nil
	case npb.ClassW:
		return 25, nil
	case npb.ClassA:
		return 28, nil
	case npb.ClassB:
		return 30, nil
	case npb.ClassC:
		return 32, nil
	}
	return 0, fmt.Errorf("ep: unsupported class %v", class)
}

// Stats is the observable outcome of an EP run.
type Stats struct {
	Class   npb.Class
	Sx, Sy  float64   // sums of the Gaussian X and Y deviates
	Q       [nq]int64 // annulus counts
	Gc      int64     // total Gaussian pairs accepted
	Pairs   int64     // 2^M pairs attempted
	Seconds float64
	Threads int
}

// batchResult is one batch's contribution.
type batchResult struct {
	sx, sy float64
	q      [nq]int64
}

// scratch is the per-thread uniform-deviate buffer — the array the paper's
// port declares threadprivate.
type scratch struct {
	x [2 * nk]float64
}

// runBatch computes batch k (0-based) of nk Gaussian pairs. Reproduces the
// NPB inner loop: seed jump (binary algorithm over the multiplier's
// squares), vranlc batch generation, polar-method acceptance.
func runBatch(k int64, buf *scratch) batchResult {
	var res batchResult

	// Starting seed of this batch: S advanced by 2·nk·k draws. NPB
	// inlines this binary jump; SkipAhead is the same algorithm.
	t1 := npb.SkipAhead(seedS, seedA, 2*int64(nk)*k)
	npb.Vranlc(2*nk, &t1, seedA, buf.x[:])

	for i := 0; i < nk; i++ {
		x1 := 2*buf.x[2*i] - 1
		x2 := 2*buf.x[2*i+1] - 1
		t := x1*x1 + x2*x2
		if t <= 1 {
			f := math.Sqrt(-2 * math.Log(t) / t)
			g1 := x1 * f
			g2 := x2 * f
			l := int(math.Max(math.Abs(g1), math.Abs(g2)))
			res.q[l]++
			res.sx += g1
			res.sy += g2
		}
	}
	return res
}

// RunSerial executes EP sequentially.
func RunSerial(class npb.Class) (*Stats, error) {
	m, err := params(class)
	if err != nil {
		return nil, err
	}
	nn := int64(1) << (m - mk) // batches
	st := &Stats{Class: class, Pairs: 1 << m, Threads: 1}

	var tm npb.Timer
	tm.Start()
	buf := new(scratch)
	for k := int64(0); k < nn; k++ {
		r := runBatch(k, buf)
		st.Sx += r.sx
		st.Sy += r.sy
		for l := 0; l < nq; l++ {
			st.Q[l] += r.q[l]
		}
	}
	tm.Stop()
	st.Seconds = tm.Seconds()
	for l := 0; l < nq; l++ {
		st.Gc += st.Q[l]
	}
	return st, nil
}

// verifyConst holds the published NPB reference sums per class (ep.f
// verification block); acceptance is relative error ≤ 1e-8.
var verifyConst = map[npb.Class][2]float64{
	npb.ClassS: {-3.247834652034740e+3, -6.958407078382297e+3},
	npb.ClassW: {-2.863319731645753e+3, -6.320053679109499e+3},
	npb.ClassA: {-4.295875165629892e+3, -1.580732573678431e+4},
	npb.ClassB: {4.033815542441498e+4, -2.660669192809235e+4},
	npb.ClassC: {4.764367927995374e+4, -8.084072988043731e+4},
}

// Verify checks the sums against the published constants and the counter
// invariant Σq == gc.
func Verify(st *Stats) bool {
	var total int64
	for _, q := range st.Q {
		total += q
	}
	if total != st.Gc {
		return false
	}
	ref, ok := verifyConst[st.Class]
	if !ok {
		return false
	}
	const eps = 1e-8
	return npb.RelErrOK(st.Sx, ref[0], eps) && npb.RelErrOK(st.Sy, ref[1], eps)
}

// Mops returns the NPB Mop/s metric for EP: 2^(M+1) operations over the
// timed region.
func (st *Stats) Mops() float64 {
	if st.Seconds <= 0 {
		return 0
	}
	return float64(2*st.Pairs) / st.Seconds / 1e6
}

// Result renders the NPB-style report row.
func (st *Stats) Result(impl string) npb.Result {
	m, _ := params(st.Class)
	return npb.Result{
		Name:      "EP",
		Class:     st.Class,
		Size:      fmt.Sprintf("2^%d pairs", m),
		Iters:     1,
		Seconds:   st.Seconds,
		MopsTotal: st.Mops(),
		Threads:   st.Threads,
		Impl:      impl,
		Verified:  Verify(st),
		Detail:    fmt.Sprintf("sx = %.15e  sy = %.15e", st.Sx, st.Sy),
	}
}
