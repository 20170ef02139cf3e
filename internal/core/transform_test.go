package core

import (
	"strings"
	"testing"
)

// ppErr preprocesses src and returns the error, which must be non-nil and
// mention want.
func ppErr(t *testing.T, src, want string) {
	t.Helper()
	_, err := preprocess([]byte(src), Options{Filename: "test.go"})
	if err == nil {
		t.Fatalf("expected error containing %q, got success\nsource:\n%s", want, src)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

// A standalone tile restructures the nest into grid + point loops without
// touching the runtime beyond the TripCount helper.
func TestPreprocessTileSerial(t *testing.T) {
	out := pp(t, `package p

func f(m []int, ni, nj int) {
	//omp tile sizes(8,16)
	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			m[i*nj+j]++
		}
	}
}
`)
	wantContains(t, out,
		"for __omp_tile0 := 0;",
		"__omp_tile0 += 8",
		"for __omp_tile1 := 0;",
		"__omp_tile1 += 16",
		"min(__omp_tile0+8,",
		"min(__omp_tile1+16,",
		"i := omp.LoopVar(0, int64(__omp_pt0), 1)",
		"j := omp.LoopVar(0, int64(__omp_pt1), 1)",
		`import omp "gomp/omp"`, // TripCount lives in the runtime package
	)
	if strings.Contains(out, "omp.Parallel") || strings.Contains(out, "omp.ForRange") {
		t.Fatalf("standalone tile must not fork or workshare:\n%s", out)
	}
}

// The composition contract of the subsystem: a worksharing directive
// stacked above tile distributes the generated tile-grid loops (OpenMP
// 5.1 "the directive applies to the generated loop").
func TestPreprocessTileComposesWithParallelFor(t *testing.T) {
	out := pp(t, `package p

func f(m []int, ni, nj int) {
	//omp parallel for collapse(2) num_threads(4)
	//omp tile sizes(8,16)
	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			m[i*nj+j]++
		}
	}
}
`)
	wantContains(t, out,
		"omp.Parallel(func(__omp_t *omp.Thread)",
		"omp.ForStart(__omp_t,",
		// The worksharing loop reconstructs tile-grid origins, stepping by
		// the tile size over each level's logical iteration space.
		"__omp_st0 := int64((8))",
		"__omp_st1 := int64((16))",
		"__omp_tile0 := omp.LoopVar(__omp_lb0, __omp_r/__omp_suf0, __omp_st0)",
		// Point loops survive inside the distributed chunk body.
		"min(__omp_tile0+8,",
		"min(__omp_tile1+16,",
	)
	if strings.Contains(out, "//omp") {
		t.Fatalf("unconsumed pragma in output:\n%s", out)
	}
}

// Descending and stepped nests tile through the same logical-iteration
// normalisation as worksharing loops.
func TestPreprocessTileDescendingStepped(t *testing.T) {
	out := pp(t, `package p

func f(a []int, n int) {
	//omp tile sizes(4)
	for i := n - 1; i >= 0; i-- {
		a[i]++
	}
	//omp tile sizes(8)
	for j := 0; j < n; j += 3 {
		a[j]++
	}
}
`)
	wantContains(t, out,
		"i := omp.LoopVar(n-1, int64(__omp_pt0), -1)",
		"j := omp.LoopVar(0, int64(__omp_pt0), 3)",
	)
}

// unroll full expands a constant-trip loop into straight-line blocks; no
// runtime call remains, so no omp import may be injected.
func TestPreprocessUnrollFull(t *testing.T) {
	out := pp(t, `package p

func f(a []int) {
	//omp unroll full
	for k := 0; k <= 6; k += 2 {
		a[k] = k
	}
}
`)
	wantContains(t, out, "k := 0", "k := 2", "k := 4", "k := 6")
	if strings.Contains(out, "for ") {
		t.Fatalf("unroll full left a loop behind:\n%s", out)
	}
	if strings.Contains(out, "gomp/omp") {
		t.Fatalf("unroll full needs no runtime, but an omp import was injected:\n%s", out)
	}
}

// unroll partial(n) emits a factor-stepped main loop with n body copies and
// a scalar remainder loop for the trip%n fringe.
func TestPreprocessUnrollPartial(t *testing.T) {
	out := pp(t, `package p

func f(a []int, n int) {
	//omp unroll partial(4)
	for i := 0; i < n; i++ {
		a[i] = i
	}
}
`)
	wantContains(t, out,
		"__omp_um := __omp_ut - __omp_ut%4",
		"for __omp_uk := 0; __omp_uk < __omp_um; __omp_uk += 4",
		"i := omp.LoopVar(0, int64(__omp_uk+1), 1)",
		"i := omp.LoopVar(0, int64(__omp_uk+3), 1)",
		"for __omp_uk := __omp_um; __omp_uk < __omp_ut; __omp_uk++",
	)
	if got := strings.Count(out, "a[i] = i"); got != 5 {
		t.Fatalf("body copies = %d, want 4 unrolled + 1 remainder:\n%s", got, out)
	}
}

// The bare directive chooses: full expansion for short constant trips,
// partial unrolling otherwise.
func TestPreprocessUnrollHeuristic(t *testing.T) {
	out := pp(t, `package p

func f(a []int, n int) {
	//omp unroll
	for k := 0; k < 8; k++ {
		a[k] = k
	}
	//omp unroll
	for i := 0; i < n; i++ {
		a[i] = i
	}
}
`)
	wantContains(t, out, "k := 7", "__omp_ut - __omp_ut%4")
}

// partial(1) is the identity transformation: the pragma disappears and the
// loop survives untouched.
func TestPreprocessUnrollPartialOne(t *testing.T) {
	out := pp(t, `package p

func f(a []int, n int) {
	//omp unroll partial(1)
	for i := 0; i < n; i++ {
		a[i] = i
	}
}
`)
	wantContains(t, out, "for i := 0; i < n; i++")
	if strings.Contains(out, "//omp") || strings.Contains(out, "__omp_") {
		t.Fatalf("partial(1) should be the identity:\n%s", out)
	}
}

// Stacked transformations apply innermost-first: the unroll nearest the
// loop runs, then tile applies to the loop unroll generated — here the
// partially-unrolled main loop is not a for statement, so tile above
// unroll is diagnosed, while unroll above tile partially unrolls the
// generated tile-grid loop.
func TestPreprocessStackedTransforms(t *testing.T) {
	out := pp(t, `package p

func f(a []int, n int) {
	//omp unroll partial(2)
	//omp tile sizes(16)
	for i := 0; i < n; i++ {
		a[i]++
	}
}
`)
	wantContains(t, out, "__omp_ut - __omp_ut%2", "min(")
}

func TestPreprocessTransformErrors(t *testing.T) {
	cases := []struct{ name, src, wantErr string }{
		{"tile-no-loop", `package p
func f() {
	//omp tile sizes(4)
	x := 1
	_ = x
}`, "must immediately precede a for statement"},
		{"tile-arity-exceeds-nest", `package p
func f(a []int, n int) {
	//omp tile sizes(4,4)
	for i := 0; i < n; i++ {
		a[i]++
	}
}`, "sizes arity 2 must match"},
		{"tile-imperfect-nest", `package p
func f(a []int, n int) {
	//omp tile sizes(4,4)
	for i := 0; i < n; i++ {
		a[i]++
		for j := 0; j < n; j++ {
			a[j]++
		}
	}
}`, "not perfect"},
		{"tile-non-rectangular", `package p
func f(a []int, n int) {
	//omp tile sizes(4,4)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			a[j]++
		}
	}
}`, "non-rectangular"},
		{"pragma-between-tile-and-loop", `package p
func f(a []int, n int) {
	//omp tile sizes(4)
	//omp parallel for
	for i := 0; i < n; i++ {
		a[i]++
	}
}`, "would be discarded"},
		{"unroll-full-nonconstant", `package p
func f(a []int, n int) {
	//omp unroll full
	for i := 0; i < n; i++ {
		a[i]++
	}
}`, "compile-time-constant"},
		{"unroll-full-too-large", `package p
func f(a []int) {
	//omp unroll full
	for i := 0; i < 100000; i++ {
		a[i]++
	}
}`, "use partial instead"},
		{"return-in-tile", `package p
func f(a []int, n int) {
	//omp tile sizes(4)
	for i := 0; i < n; i++ {
		return
	}
}`, "return inside a transformed loop"},
		{"break-in-tile", `package p
func f(a []int, n int) {
	//omp tile sizes(4)
	for i := 0; i < n; i++ {
		break
	}
}`, "break inside a transformed loop"},
		{"continue-in-unroll", `package p
func f(a []int, n int) {
	//omp unroll partial(2)
	for i := 0; i < n; i++ {
		if a[i] == 0 {
			continue
		}
		a[i]++
	}
}`, "continue inside an unrolled loop"},
		{"label-in-unroll", `package p
func f(a []int, n int) {
	//omp unroll partial(2)
	for i := 0; i < n; i++ {
	lbl:
		for j := 0; j < n; j++ {
			if j == 2 {
				break lbl
			}
		}
	}
}`, "label lbl inside an unrolled loop body"},
		{"continue-outer-from-for", `package p
func f(a [][]int) {
outer:
	for _, row := range a {
		//omp parallel for
		for i := 0; i < len(row); i++ {
			if row[i] < 0 {
				continue outer
			}
			row[i]++
		}
	}
}`, "continue outer inside a worksharing loop is not allowed"},
		{"break-outer-from-nested-loop", `package p
func f(a [][]int) {
outer:
	for _, row := range a {
		//omp parallel for
		for i := 0; i < len(row); i++ {
			for j := range row {
				if j == i {
					break outer
				}
			}
		}
	}
}`, "break outer inside a worksharing loop is not allowed"},
		{"continue-outer-from-tile", `package p
func f(a [][]int) {
outer:
	for _, row := range a {
		//omp tile sizes(4)
		for i := 0; i < len(row); i++ {
			if row[i] < 0 {
				continue outer
			}
		}
	}
}`, "continue outer inside a transformed loop is not allowed"},
		{"cancel-for-in-unrolled-body", `package p
func f(a []int) {
	//omp parallel
	{
		//omp unroll partial(2)
		for r := 0; r < 4; r++ {
			//omp for
			for i := 0; i < len(a); i++ {
				if a[i] < 0 {
					//omp cancel for
				}
			}
		}
	}
}`, "the loop's label would be duplicated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { ppErr(t, tc.src, tc.wantErr) })
	}
}

// Branch statements that bind locally inside the body stay legal: break in
// a nested loop or switch, continue in a nested loop, and anything inside
// a function literal.
func TestPreprocessTransformLocalBranchesAllowed(t *testing.T) {
	out := pp(t, `package p

func f(a []int, n int) {
	//omp unroll partial(2)
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			if j == 2 {
				break
			}
			if j == 1 {
				continue
			}
		}
		switch a[i] {
		case 0:
			break
		}
		g := func() int { return i }
		a[i] = g()
	}
	//omp tile sizes(4)
	for i := 0; i < n; i++ {
		if a[i] == 0 {
			continue
		}
		a[i]++
	}
}
`)
	wantContains(t, out, "__omp_ut - __omp_ut%2", "min(")
}

// collapse reaching past the tile-grid loops must be diagnosed, not
// silently mis-scheduled — the MaxCollapse interaction with the
// post-transformation nest depth. The point loops are deliberately
// non-canonical for worksharing (tuple init hoisting the fringe bound), so
// the rejection fires at the first level past the grid.
func TestPreprocessCollapsePastTileDepthRejected(t *testing.T) {
	ppErr(t, `package p
func f(m []int, ni, nj int) {
	//omp parallel for collapse(3)
	//omp tile sizes(4,4)
	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			m[i*nj+j]++
		}
	}
}`, "collapse level 3")
}

// collapse arity equal to the tile depth consumes exactly the grid loops.
func TestPreprocessCollapseEqualsTileDepth(t *testing.T) {
	out := pp(t, `package p

func f(m []int, ni, nj int) {
	//omp parallel for collapse(2)
	//omp tile sizes(4,4)
	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			m[i*nj+j]++
		}
	}
}
`)
	wantContains(t, out, "omp.ForStart", "__omp_suf0", "min(__omp_tile1+4,")
}
