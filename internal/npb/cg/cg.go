// Package cg implements the NPB Conjugate Gradient kernel: the smallest
// eigenvalue of a large sparse symmetric positive-definite matrix is
// estimated by inverse power iteration, each step solving Az = x with 25
// unpreconditioned CG iterations. The paper ports the conj_grad subroutine
// ("around 95% of the runtime") to Zig; it exercises parallel and
// worksharing directives, private/shared/firstprivate clauses, nowait, and
// reductions on both the region and the loops (Section V-A).
package cg

import (
	"fmt"
	"math"
	"slices"

	"gomp/internal/npb"
)

//go:generate go run gomp/cmd/gompcc -o omp.go _omp/parallel.go

// classParams mirrors the NPB CG problem classes.
type classParams struct {
	na     int     // matrix order
	nonzer int     // nonzeros per generated row vector
	niter  int     // power-iteration steps
	shift  float64 // diagonal shift
	zeta   float64 // published verification value
}

var classes = map[npb.Class]classParams{
	npb.ClassS: {1400, 7, 15, 10, 8.5971775078648},
	npb.ClassW: {7000, 8, 15, 12, 10.362595087124},
	npb.ClassA: {14000, 11, 15, 20, 17.130235054029},
	npb.ClassB: {75000, 13, 75, 60, 22.712745482631},
	npb.ClassC: {150000, 15, 75, 110, 28.973605592845},
}

const (
	rcond   = 0.1
	cgitmax = 25    // CG iterations per power step
	zetaEps = 1e-10 // published acceptance threshold
	cgSeed  = 314159265.0
	cgAmult = 1220703125.0
)

// Matrix is the generated sparse SPD matrix in CSR form.
type Matrix struct {
	N      int
	A      []float64
	ColIdx []int32
	RowStr []int32
	NNZ    int
}

// Stats is the observable outcome of a CG run.
type Stats struct {
	Class   npb.Class
	Zeta    float64
	RNorm   float64 // final CG residual norm
	Seconds float64 // timed region (the niter power iterations)
	Threads int
	NNZ     int
}

// padF64 keeps the goroutine baseline's per-worker partial sums on separate
// cache lines.
type padF64 struct {
	v float64
	_ [56]byte
}

// genState carries the matrix generator's LCG stream (NPB's tran/amult
// globals).
type genState struct {
	tran npb.Stream
}

func (g *genState) randlc() float64 { return g.tran.Float64() }

// sprnvc generates a sparse vector of nz distinct random nonzeros in
// [1, n], values in (0,1) — NPB's sprnvc, consuming two LCG draws per
// candidate and rejecting out-of-range or duplicate locations.
func (g *genState) sprnvc(n, nz, nn1 int, v []float64, iv []int) int {
	nzv := 0
	for nzv < nz {
		vecelt := g.randlc()
		vecloc := g.randlc()
		i := int(float64(nn1)*vecloc) + 1 // icnvrt
		if i > n {
			continue
		}
		dup := false
		for ii := 0; ii < nzv; ii++ {
			if iv[ii] == i {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		v[nzv] = vecelt
		iv[nzv] = i
		nzv++
	}
	return nzv
}

// vecset forces element i of the sparse vector to val, appending if absent
// — NPB's vecset (places the 0.5 on the future diagonal).
func vecset(v []float64, iv []int, nzv int, i int, val float64) int {
	for k := 0; k < nzv; k++ {
		if iv[k] == i {
			v[k] = val
			return nzv
		}
	}
	v[nzv] = val
	iv[nzv] = i
	return nzv + 1
}

// MakeA generates the class matrix: the weighted sum of outer products
// Σ ωᵢ xᵢxᵢᵀ of random sparse vectors (ω geometric from 1 to rcond), plus
// (rcond − shift) on the diagonal — NPB's makea: sprnvc and vecset draw the
// vectors from the LCG stream exactly as the reference does, and sparse
// assembles them into a matrix bit-identical to the reference's, so the
// verification ζ matches it bit for bit.
func MakeA(class npb.Class) (*Matrix, error) {
	p, ok := classes[class]
	if !ok {
		return nil, fmt.Errorf("cg: unsupported class %v", class)
	}
	n := p.na
	arow, acol, aelt := generate(n, p.nonzer)
	a, colidx, rowstr := sparse(n, p.nonzer+1, arow, acol, aelt, p.shift)
	return &Matrix{N: n, A: a, ColIdx: colidx, RowStr: rowstr, NNZ: len(a)}, nil
}

// generate draws makea's n sparse vectors. Vector i has arow[i] ≤ stride =
// nonzer+1 nonzeros, each in a distinct 0-based column: acol[i*stride+k]
// holds the column and aelt[i*stride+k] the value, in the order NPB
// generates them.
func generate(n, nonzer int) (arow, acol []int32, aelt []float64) {
	g := &genState{tran: npb.NewStream(cgSeed, cgAmult)}
	g.randlc() // NPB main draws one zeta seed before makea

	nn1 := 1
	for nn1 < n {
		nn1 *= 2
	}
	stride := nonzer + 1
	arow = make([]int32, n)
	acol = make([]int32, n*stride)
	aelt = make([]float64, n*stride)
	vc := make([]float64, stride)
	ivc := make([]int, stride)
	for iouter := 0; iouter < n; iouter++ {
		nzv := g.sprnvc(n, nonzer, nn1, vc, ivc)
		nzv = vecset(vc, ivc, nzv, iouter+1, 0.5)
		arow[iouter] = int32(nzv)
		for i := 0; i < nzv; i++ {
			acol[iouter*stride+i] = int32(ivc[i] - 1)
			aelt[iouter*stride+i] = vc[i]
		}
	}
	return arow, acol, aelt
}

// sparse is NPB's sparse(): it assembles Σᵢ ωᵢ vᵢvᵢᵀ + (rcond − shift)·I in
// CSR form from generate's vectors, ωᵢ = rcond^(i/n).
//
// NPB adds each contribution ωᵢ·vᵢ[k]·vᵢ[l] into its row as it is generated,
// keeping the row's columns insertion-sorted and adding a repeated column
// into the entry already there. Each entry is therefore 0 plus its
// contributions, added in generation order. This assembly performs the
// same additions in the same order without the insertion shifts: it
// appends every contribution to its row's slots (sized, as in NPB, for
// every contribution the row receives) in generation order, then, row by
// row, sums equal columns in slot order starting from zero and writes the
// columns out in ascending order. A, ColIdx and RowStr are bit-identical
// to NPB's.
func sparse(n, stride int, arow, acol []int32, aelt []float64, shift float64) (a []float64, colidx, rowstr []int32) {
	vec := func(i int) ([]int32, []float64) {
		return acol[i*stride:][:arow[i]], aelt[i*stride:][:arow[i]]
	}
	rowstr = make([]int32, n+1)
	for i := 0; i < n; i++ {
		cols, _ := vec(i)
		for _, j := range cols {
			rowstr[j+1] += arow[i]
		}
	}
	for j := 1; j <= n; j++ {
		rowstr[j] += rowstr[j-1]
	}
	a = make([]float64, rowstr[n])
	colidx = make([]int32, rowstr[n])

	next := make([]int32, n) // row j's first free slot
	copy(next, rowstr)
	size := 1.0
	ratio := math.Pow(rcond, 1.0/float64(n))
	for i := 0; i < n; i++ {
		cols, vals := vec(i)
		for nza, j := range cols {
			scale := size * vals[nza]
			for nzrow, jcol := range cols {
				va := vals[nzrow] * scale
				if jcol == j && int(j) == i {
					va += rcond - shift
				}
				k := next[j]
				next[j]++
				a[k] = va
				colidx[k] = jcol
			}
		}
		size *= ratio
	}

	// Row by row: sum[c] accumulates column c, whose first slot in row j
	// sets seen[c] to j+1; the row's columns are then written out sorted,
	// over its own slots or the freed ones before them.
	sum := make([]float64, n)
	seen := make([]int32, n)
	row := make([]int32, 0, n)
	nnz := int32(0)
	for j := 0; j < n; j++ {
		row = row[:0]
		for k := rowstr[j]; k < rowstr[j+1]; k++ {
			c := colidx[k]
			if seen[c] != int32(j+1) {
				seen[c] = int32(j + 1)
				sum[c] = 0
				row = append(row, c)
			}
			sum[c] += a[k]
		}
		slices.Sort(row)
		rowstr[j] = nnz
		for _, c := range row {
			a[nnz] = sum[c]
			colidx[nnz] = c
			nnz++
		}
	}
	rowstr[n] = nnz
	return a[:nnz], colidx[:nnz], rowstr
}

// ConjGradSerial runs one 25-iteration CG solve of Az = x, returning the
// residual norm ‖x − Az‖ — NPB's conj_grad, sequential.
func ConjGradSerial(m *Matrix, x, z, p, q, r []float64) float64 {
	n := m.N
	for j := 0; j < n; j++ {
		q[j] = 0
		z[j] = 0
		r[j] = x[j]
		p[j] = r[j]
	}
	rho := 0.0
	for j := 0; j < n; j++ {
		rho += r[j] * r[j]
	}
	for cgit := 0; cgit < cgitmax; cgit++ {
		spmv(m, p, q)
		d := 0.0
		for j := 0; j < n; j++ {
			d += p[j] * q[j]
		}
		alpha := rho / d
		rho0 := rho
		rho = 0
		for j := 0; j < n; j++ {
			z[j] += alpha * p[j]
			r[j] -= alpha * q[j]
			rho += r[j] * r[j]
		}
		beta := rho / rho0
		for j := 0; j < n; j++ {
			p[j] = r[j] + beta*p[j]
		}
	}
	spmv(m, z, r)
	sum := 0.0
	for j := 0; j < n; j++ {
		d := x[j] - r[j]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// spmv computes q = A·w over the CSR rows [0, N).
func spmv(m *Matrix, w, q []float64) {
	spmvRows(m, w, q, 0, m.N)
}

// spmvRows computes q = A·w for the row range [lo, hi) — the unit of
// worksharing all parallel flavours partition.
func spmvRows(m *Matrix, w, q []float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		sum := 0.0
		for k := m.RowStr[j]; k < m.RowStr[j+1]; k++ {
			sum += m.A[k] * w[m.ColIdx[k]]
		}
		q[j] = sum
	}
}

// RunSerial executes the full benchmark sequentially: matrix generation,
// one untimed warm-up power iteration, then niter timed iterations.
func RunSerial(class npb.Class) (*Stats, error) {
	m, err := MakeA(class)
	if err != nil {
		return nil, err
	}
	return runWith(class, m, 1, func(x, z, p, q, r []float64) float64 {
		return ConjGradSerial(m, x, z, p, q, r)
	})
}

// runWith drives the power iteration around any conj_grad implementation.
func runWith(class npb.Class, m *Matrix, threads int, conjGrad func(x, z, p, q, r []float64) float64) (*Stats, error) {
	p := classes[class]
	n := m.N
	x := make([]float64, n)
	z := make([]float64, n)
	pp := make([]float64, n)
	q := make([]float64, n)
	r := make([]float64, n)

	power := func(timed bool, iters int) (zeta, rnorm float64) {
		for j := range x {
			x[j] = 1
		}
		for it := 0; it < iters; it++ {
			rnorm = conjGrad(x, z, pp, q, r)
			norm1 := 0.0
			norm2 := 0.0
			for j := 0; j < n; j++ {
				norm1 += x[j] * z[j]
				norm2 += z[j] * z[j]
			}
			norm2 = 1 / math.Sqrt(norm2)
			zeta = p.shift + 1/norm1
			for j := 0; j < n; j++ {
				x[j] = norm2 * z[j]
			}
		}
		return zeta, rnorm
	}

	power(false, 1) // untimed warm-up iteration, per the NPB driver

	var tm npb.Timer
	tm.Start()
	zeta, rnorm := power(true, p.niter)
	tm.Stop()

	return &Stats{
		Class:   class,
		Zeta:    zeta,
		RNorm:   rnorm,
		Seconds: tm.Seconds(),
		Threads: threads,
		NNZ:     m.NNZ,
	}, nil
}

// Verify checks ζ against the published per-class constant at 1e-10, NPB's
// acceptance test.
func Verify(st *Stats) bool {
	p, ok := classes[st.Class]
	if !ok {
		return false
	}
	return math.Abs(st.Zeta-p.zeta) <= zetaEps
}

// Mops returns the NPB Mop/s metric for CG.
func (st *Stats) Mops() float64 {
	if st.Seconds <= 0 {
		return 0
	}
	p := classes[st.Class]
	nz := float64(p.nonzer * (p.nonzer + 1))
	flops := 2 * float64(p.niter) * float64(p.na) *
		(3 + nz + 25*(5+nz) + 3)
	return flops / st.Seconds / 1e6
}

// Result renders the NPB-style report row.
func (st *Stats) Result(impl string) npb.Result {
	p := classes[st.Class]
	return npb.Result{
		Name:      "CG",
		Class:     st.Class,
		Size:      fmt.Sprintf("n=%d nnz=%d", p.na, st.NNZ),
		Iters:     p.niter,
		Seconds:   st.Seconds,
		MopsTotal: st.Mops(),
		Threads:   st.Threads,
		Impl:      impl,
		Verified:  Verify(st),
		Detail:    fmt.Sprintf("zeta = %.13f (want %.13f)", st.Zeta, p.zeta),
	}
}
