package cg

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"

	"gomp/internal/npb"
)

// npbSparse is NPB's sparse() as the reference writes it, over generate's
// vectors: every contribution is insertion-sorted into its row's slots as
// it is generated, a repeated column is added into the entry already
// there, and a last pass squeezes out the slots the merges freed. It is the
// oracle sparse must match bit for bit.
func npbSparse(n, stride int, arow, acol []int32, aelt []float64, shift float64) (a []float64, colidx, rowstr []int32) {
	rowstr = make([]int32, n+1)
	nzloc := make([]int32, n)
	for i := 0; i < n; i++ {
		for nza := int32(0); nza < arow[i]; nza++ {
			j := acol[i*stride+int(nza)] + 1
			rowstr[j] += arow[i]
		}
	}
	for j := 1; j <= n; j++ {
		rowstr[j] += rowstr[j-1]
	}
	a = make([]float64, rowstr[n])
	colidx = make([]int32, rowstr[n])
	for k := range colidx {
		colidx[k] = -1
	}

	size := 1.0
	ratio := math.Pow(rcond, 1.0/float64(n))
	for i := 0; i < n; i++ {
		for nza := 0; nza < int(arow[i]); nza++ {
			j := int(acol[i*stride+nza])
			scale := size * aelt[i*stride+nza]
			for nzrow := 0; nzrow < int(arow[i]); nzrow++ {
				jcol := acol[i*stride+nzrow]
				va := aelt[i*stride+nzrow] * scale
				if int(jcol) == j && j == i {
					va += rcond - shift
				}
				var k int32
				placed := false
				for k = rowstr[j]; k < rowstr[j+1]; k++ {
					switch {
					case colidx[k] > jcol:
						// Shift the sorted tail right and insert.
						for kk := rowstr[j+1] - 2; kk >= k; kk-- {
							if colidx[kk] > -1 {
								a[kk+1] = a[kk]
								colidx[kk+1] = colidx[kk]
							}
						}
						colidx[k] = jcol
						a[k] = 0
						placed = true
					case colidx[k] == -1:
						colidx[k] = jcol
						placed = true
					case colidx[k] == jcol:
						nzloc[j]++ // duplicate: merge, one slot freed
						placed = true
					}
					if placed {
						break
					}
				}
				if !placed {
					panic("npbSparse: row slots exhausted")
				}
				a[k] += va
			}
		}
		size *= ratio
	}

	// Compression: squeeze out the slots freed by duplicate merges.
	for j := 1; j < n; j++ {
		nzloc[j] += nzloc[j-1]
	}
	for j := 0; j < n; j++ {
		j1 := int32(0)
		if j > 0 {
			j1 = rowstr[j] - nzloc[j-1]
		}
		j2 := rowstr[j+1] - nzloc[j]
		nza := rowstr[j]
		for k := j1; k < j2; k++ {
			a[k] = a[nza]
			colidx[k] = colidx[nza]
			nza++
		}
	}
	for j := 1; j <= n; j++ {
		rowstr[j] -= nzloc[j-1]
	}
	return a[:rowstr[n]], colidx[:rowstr[n]], rowstr
}

// sameAssembly fails t unless the two CSR triples are bit-identical.
func sameAssembly(t *testing.T, name string, a, wantA []float64, colidx, wantCol, rowstr, wantRow []int32) {
	t.Helper()
	if len(rowstr) != len(wantRow) || len(colidx) != len(wantCol) || len(a) != len(wantA) {
		t.Fatalf("%s: %d rows, %d entries; want %d rows, %d entries", name, len(rowstr)-1, len(a), len(wantRow)-1, len(wantA))
	}
	for j := range rowstr {
		if rowstr[j] != wantRow[j] {
			t.Fatalf("%s: rowstr[%d] = %d, want %d", name, j, rowstr[j], wantRow[j])
		}
	}
	for k := range a {
		if colidx[k] != wantCol[k] || math.Float64bits(a[k]) != math.Float64bits(wantA[k]) {
			t.Fatalf("%s: entry %d = (%d, %x), want (%d, %x)", name, k,
				colidx[k], math.Float64bits(a[k]), wantCol[k], math.Float64bits(wantA[k]))
		}
	}
}

// The class matrices, assembled without insertion shifts, must match NPB's
// assembly bit for bit.
func TestMakeAMatchesNPBSparse(t *testing.T) {
	for _, class := range []npb.Class{npb.ClassS, npb.ClassW, npb.ClassA} {
		if class == npb.ClassA && testing.Short() {
			continue
		}
		p := classes[class]
		arow, acol, aelt := generate(p.na, p.nonzer)
		wantA, wantCol, wantRow := npbSparse(p.na, p.nonzer+1, arow, acol, aelt, p.shift)
		m, err := MakeA(class)
		if err != nil {
			t.Fatal(err)
		}
		sameAssembly(t, "class "+class.String(), m.A, wantA, m.ColIdx, wantCol, m.RowStr, wantRow)
		if m.NNZ != len(wantA) {
			t.Fatalf("class %v: NNZ = %d, want %d", class, m.NNZ, len(wantA))
		}
	}
}

// FuzzSparse feeds both assemblies small random generator output: up to 64
// vectors, each with distinct columns, and sometimes its own diagonal (the
// entry vecset places).
func FuzzSparse(f *testing.F) {
	f.Add(uint8(5), uint8(3), 1.5, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(uint8(64), uint8(8), 10.0, []byte("the quick brown fox jumps over the lazy dog"))
	f.Add(uint8(1), uint8(1), -0.1, []byte{0})
	f.Fuzz(func(t *testing.T, n, stride uint8, shift float64, data []byte) {
		rows := 1 + int(n%64)
		width := 1 + int(stride%12)
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		arow := make([]int32, rows)
		acol := make([]int32, rows*width)
		aelt := make([]float64, rows*width)
		for i := 0; i < rows; i++ {
			want := int(next()) % (width + 1)
			if next()&1 == 1 && want > 0 {
				// The diagonal, as vecset places it.
				acol[i*width] = int32(i)
				aelt[i*width] = 0.5
				arow[i] = 1
			}
			for tries := 0; int(arow[i]) < want && tries < 4*width; tries++ {
				c := int32(next()) % int32(rows)
				if !slices.Contains(acol[i*width:][:arow[i]], c) {
					acol[i*width+int(arow[i])] = c
					aelt[i*width+int(arow[i])] = float64(uint16(next())<<8|uint16(next())) / (1 << 16)
					arow[i]++
				}
			}
		}
		a, colidx, rowstr := sparse(rows, width, arow, acol, aelt, shift)
		wantA, wantCol, wantRow := npbSparse(rows, width, arow, acol, aelt, shift)
		sameAssembly(t, "fuzz", a, wantA, colidx, wantCol, rowstr, wantRow)
	})
}

// matrixDigests are FNV-64a digests of the class matrices (RowStr, then
// ColIdx, then the bits of A, each little-endian), recorded with NPB's
// insertion-sorted assembly. A change to generation or assembly that moves
// a single bit fails here.
var matrixDigests = map[npb.Class]uint64{
	npb.ClassS: 0x21e35e107d98acc8,
	npb.ClassW: 0x4a4c809eac21c004,
}

func matrixDigest(m *Matrix) uint64 {
	buf := make([]byte, 0, 4*len(m.RowStr)+12*len(m.A))
	for _, v := range m.RowStr {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, v := range m.ColIdx {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, v := range m.A {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum64()
}

func TestMatrixDigest(t *testing.T) {
	for class, want := range matrixDigests {
		m, err := MakeA(class)
		if err != nil {
			t.Fatal(err)
		}
		if got := matrixDigest(m); got != want {
			t.Errorf("class %v: matrix digest %016x, want %016x", class, got, want)
		}
	}
}

// MakeA's allocation at class S: no more bytes than NPB's assembly took
// (1 367 287 B, with 2 811 allocations for its per-vector slices) and a
// handful of flat arrays.
func TestMakeAAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	makeS := func() {
		if _, err := MakeA(npb.ClassS); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, makeS)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const calls = 3
	for i := 0; i < calls; i++ {
		makeS()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("class S: %.0f allocs, %d B per MakeA", allocs, bytes)
	if allocs > 16 || bytes > 1367287 {
		t.Errorf("class S: %.0f allocs and %d B per MakeA, want ≤ 16 and ≤ 1367287 B", allocs, bytes)
	}
}
