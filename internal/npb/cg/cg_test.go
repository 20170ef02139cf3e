package cg

import (
	"math"
	"sync"
	"testing"

	"gomp/internal/npb"
)

// Matrix generation is the expensive part of the tests; share one S-class
// run per flavour.
var (
	serialOnce sync.Once
	serialS    *Stats
	serialErr  error
)

func serialClassS(t *testing.T) *Stats {
	t.Helper()
	serialOnce.Do(func() { serialS, serialErr = RunSerial(npb.ClassS) })
	if serialErr != nil {
		t.Fatal(serialErr)
	}
	return serialS
}

// The headline correctness test: ζ must hit the published NPB constant to
// 1e-10, which requires makea (sprnvc/vecset/sparse and the LCG stream) to
// be bit-faithful to the reference implementation.
func TestSerialClassSVerifies(t *testing.T) {
	st := serialClassS(t)
	if !Verify(st) {
		t.Fatalf("class S zeta = %.13f, want %.13f", st.Zeta, classes[npb.ClassS].zeta)
	}
	if st.RNorm > 1e-12 {
		t.Fatalf("residual norm %e did not converge", st.RNorm)
	}
}

func TestMatrixStructure(t *testing.T) {
	m, err := MakeA(npb.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	p := classes[npb.ClassS]
	if m.N != p.na {
		t.Fatalf("N = %d, want %d", m.N, p.na)
	}
	if m.NNZ <= m.N || m.NNZ > p.na*(p.nonzer+1)*(p.nonzer+1) {
		t.Fatalf("NNZ = %d out of range", m.NNZ)
	}
	// CSR invariants: rowstr monotone, colidx sorted and in range per row,
	// diagonal present.
	for j := 0; j < m.N; j++ {
		if m.RowStr[j] > m.RowStr[j+1] {
			t.Fatalf("rowstr not monotone at %d", j)
		}
		diag := false
		for k := m.RowStr[j]; k < m.RowStr[j+1]; k++ {
			c := m.ColIdx[k]
			if c < 0 || int(c) >= m.N {
				t.Fatalf("colidx out of range at row %d: %d", j, c)
			}
			if k > m.RowStr[j] && m.ColIdx[k-1] >= c {
				t.Fatalf("row %d columns not strictly sorted", j)
			}
			if int(c) == j {
				diag = true
			}
		}
		if !diag {
			t.Fatalf("row %d missing diagonal", j)
		}
	}
}

// The generated matrix must be symmetric (a sum of outer products plus a
// diagonal): A[i][j] == A[j][i].
func TestMatrixSymmetric(t *testing.T) {
	m, err := MakeA(npb.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	find := func(i, j int) float64 {
		for k := m.RowStr[i]; k < m.RowStr[i+1]; k++ {
			if int(m.ColIdx[k]) == j {
				return m.A[k]
			}
		}
		return 0
	}
	// Spot-check a deterministic sample of rows.
	for i := 0; i < m.N; i += 97 {
		for k := m.RowStr[i]; k < m.RowStr[i+1]; k++ {
			j := int(m.ColIdx[k])
			if diff := math.Abs(m.A[k] - find(j, i)); diff > 1e-12 {
				t.Fatalf("A[%d][%d]=%g != A[%d][%d]=%g", i, j, m.A[k], j, i, find(j, i))
			}
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	st := serialClassS(t)
	for _, threads := range []int{1, 2, 4} {
		par, err := RunParallel(npb.ClassS, threads)
		if err != nil {
			t.Fatal(err)
		}
		if !Verify(par) {
			t.Fatalf("threads=%d: zeta = %.13f failed verification", threads, par.Zeta)
		}
		if math.Abs(par.Zeta-st.Zeta) > 1e-11 {
			t.Fatalf("threads=%d: zeta %.13f deviates from serial %.13f", threads, par.Zeta, st.Zeta)
		}
	}
}

func TestGoroutinesMatchSerial(t *testing.T) {
	st := serialClassS(t)
	gr, err := RunGoroutines(npb.ClassS, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(gr) {
		t.Fatalf("goroutines zeta = %.13f failed verification", gr.Zeta)
	}
	if math.Abs(gr.Zeta-st.Zeta) > 1e-11 {
		t.Fatalf("goroutines zeta deviates from serial")
	}
}

// Determinism: the deterministic reduction must give bit-identical ζ and
// rnorm across repeated parallel runs at each team size. The runs share
// one matrix, so that twenty of them at each T stay cheap.
func TestParallelDeterministic(t *testing.T) {
	const runs = 20
	m, err := MakeA(npb.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	for threads := 1; threads <= 4; threads++ {
		var first *Stats
		for i := 0; i < runs; i++ {
			st, err := runWith(npb.ClassS, m, threads, func(x, z, p, q, r []float64) float64 {
				return ConjGradOMP(m, x, z, p, q, r, threads)
			})
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = st
				continue
			}
			if math.Float64bits(st.Zeta) != math.Float64bits(first.Zeta) ||
				math.Float64bits(st.RNorm) != math.Float64bits(first.RNorm) {
				t.Fatalf("T=%d run %d: zeta %.17g rnorm %.17g, first run gave %.17g %.17g",
					threads, i, st.Zeta, st.RNorm, first.Zeta, first.RNorm)
			}
		}
	}
}

func TestUnsupportedClass(t *testing.T) {
	if _, err := RunSerial(npb.Class('Q')); err == nil {
		t.Fatal("class Q accepted")
	}
}

func TestVerifyRejectsPerturbedZeta(t *testing.T) {
	st := *serialClassS(t)
	st.Zeta += 1e-8
	if Verify(&st) {
		t.Fatal("perturbed zeta accepted")
	}
}

func TestResultAndMops(t *testing.T) {
	st := serialClassS(t)
	r := st.Result("serial")
	if !r.Verified || r.Name != "CG" || r.Iters != 15 {
		t.Fatalf("result = %+v", r)
	}
	if st.Mops() <= 0 {
		t.Fatal("Mops <= 0")
	}
}

// The generator needs its seed and multiplier as integers in [0, 2^46).
func TestLCGConstantsInDomain(t *testing.T) {
	for name, v := range map[string]float64{"cgSeed": cgSeed, "cgAmult": cgAmult} {
		if !npb.InDomain(v) {
			t.Errorf("%s = %v is not an integer in [0, 2^46)", name, v)
		}
	}
}
