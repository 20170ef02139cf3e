package cg

import (
	"math"
	"testing"

	"gomp/internal/npb"
)

// ompBits are the omp flavour's ζ and final rnorm bits per class and team
// size, recorded with the untuned conj_grad: partials through memory, a
// second barrier per reduction, spmvRows. The tid-order fold makes rnorm
// depend on T, never on timing; a reordered operation anywhere in the
// region fails here even when ζ still verifies.
var ompBits = map[npb.Class][4]struct{ zeta, rnorm uint64 }{
	npb.ClassS: {
		{0x402131c140145f4d, 0x3cdf621703997f4e},
		{0x402131c140145f4d, 0x3cdfde7f150a031d},
		{0x402131c140145f4d, 0x3ce1295560c7b956},
		{0x402131c140145f4d, 0x3ce08da3626a819e},
	},
	npb.ClassW: {
		{0x4024b9a61031c698, 0x3ce2783050a5837b},
		{0x4024b9a61031c699, 0x3ce1ba75beb9f051},
		{0x4024b9a61031c699, 0x3ce1e4a6a38943ca},
		{0x4024b9a61031c699, 0x3ce1db1ab7f485b0},
	},
}

func TestParallelBitsPinned(t *testing.T) {
	for _, class := range []npb.Class{npb.ClassS, npb.ClassW} {
		if class == npb.ClassW && testing.Short() {
			t.Skip("class W runs")
		}
		for i, want := range ompBits[class] {
			threads := i + 1
			st, err := RunParallel(class, threads)
			if err != nil {
				t.Fatal(err)
			}
			zeta, rnorm := math.Float64bits(st.Zeta), math.Float64bits(st.RNorm)
			if zeta != want.zeta || rnorm != want.rnorm {
				t.Errorf("class %v T=%d: zeta %#016x rnorm %#016x, want %#016x %#016x",
					class, threads, zeta, rnorm, want.zeta, want.rnorm)
			}
		}
	}
}

// rowDotRows computes q = A·w over the rows [lo, hi) with the omp
// flavour's row kernel, rowDot, the way its loops call it: one row at a time.
func rowDotRows(m *Matrix, w, q []float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		q[j] = rowDot(m, w, j)
	}
}

// The omp flavour's row kernel against the frozen spmvRows, on the class
// matrices: whole range, and blocks that start and end mid-matrix.
func TestRowKernelMatchesSpmvRows(t *testing.T) {
	for _, class := range []npb.Class{npb.ClassS, npb.ClassW} {
		m, err := MakeA(class)
		if err != nil {
			t.Fatal(err)
		}
		w := make([]float64, m.N)
		for j := range w {
			w[j] = 1 / float64(j+1)
		}
		for _, blk := range [][2]int{{0, m.N}, {0, 1}, {m.N / 3, 2 * m.N / 3}, {m.N - 1, m.N}, {7, 7}} {
			want, got := make([]float64, m.N), make([]float64, m.N)
			spmvRows(m, w, want, blk[0], blk[1])
			rowDotRows(m, w, got, blk[0], blk[1])
			if j, ok := firstBitDiff(want, got); !ok {
				t.Fatalf("class %v rows [%d,%d): q[%d] = %x, spmvRows gives %x",
					class, blk[0], blk[1], j, math.Float64bits(got[j]), math.Float64bits(want[j]))
			}
		}
	}
}

func firstBitDiff(want, got []float64) (int, bool) {
	for j := range want {
		if math.Float64bits(want[j]) != math.Float64bits(got[j]) {
			return j, false
		}
	}
	return 0, true
}

// FuzzRowKernel drives both kernels over random CSR matrices: rows of 0–64
// entries, columns that may repeat within a row, finite values of mixed
// sign and magnitude, and a random row block.
func FuzzRowKernel(f *testing.F) {
	f.Add(uint8(4), uint16(0), uint16(4), []byte{3, 1, 2, 0, 1, 1, 0, 2, 5, 9, 4, 4, 4, 4})
	f.Add(uint8(1), uint16(0), uint16(1), []byte{64})
	f.Add(uint8(9), uint16(2), uint16(6), []byte("row kernels must add in the same order"))
	f.Fuzz(func(t *testing.T, rows uint8, lo, hi uint16, data []byte) {
		n := 1 + int(rows%64)
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		value := func() float64 {
			// A signed 16-bit mantissa scaled by 2^-8..2^7: finite, with
			// enough spread for rounding to depend on the order.
			v := float64(int16(uint16(next())<<8 | uint16(next())))
			return math.Ldexp(v, int(next()%16)-8)
		}
		m := &Matrix{N: n, RowStr: make([]int32, n+1)}
		for j := 0; j < n; j++ {
			for e := int(next()) % 65; e > 0; e-- {
				m.ColIdx = append(m.ColIdx, int32(int(next())%n))
				m.A = append(m.A, value())
			}
			m.RowStr[j+1] = int32(len(m.A))
		}
		m.NNZ = len(m.A)
		w := make([]float64, n)
		for j := range w {
			w[j] = value()
		}
		a, b := int(lo)%(n+1), int(hi)%(n+1)
		if a > b {
			a, b = b, a
		}
		want, got := make([]float64, n), make([]float64, n)
		spmvRows(m, w, want, a, b)
		rowDotRows(m, w, got, a, b)
		if j, ok := firstBitDiff(want, got); !ok {
			t.Fatalf("rows [%d,%d): q[%d] = %x, spmvRows gives %x",
				a, b, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
		}
	})
}
