package omp

import (
	"math"
	"testing"
)

// reduceFloat64 runs the canonical generated-code pattern for a float64
// reduction over [0,trip) where each iteration contributes f(i).
func reduceFloat64(op ReduceOp, initial float64, trip int64, f func(int64) float64) float64 {
	r := NewFloat64Reduction(op, initial)
	Parallel(func(t *Thread) {
		local := r.Identity()
		For(t, trip, func(i int64) {
			switch op {
			case ReduceSum:
				local += f(i)
			case ReduceProd:
				local *= f(i)
			case ReduceMin:
				local = math.Min(local, f(i))
			case ReduceMax:
				local = math.Max(local, f(i))
			}
		})
		r.Combine(local)
	}, NumThreads(4))
	return r.Value()
}

func TestFloat64SumReduction(t *testing.T) {
	if got := reduceFloat64(ReduceSum, 100, 1000, func(i int64) float64 { return 1 }); got != 1100 {
		t.Fatalf("sum = %g, want 1100 (init participates once)", got)
	}
}

func TestFloat64ProdReduction(t *testing.T) {
	// Product of 2^10 split across threads — exact in float64.
	if got := reduceFloat64(ReduceProd, 0.5, 10, func(i int64) float64 { return 2 }); got != 512 {
		t.Fatalf("prod = %g, want 0.5*2^10 = 512", got)
	}
}

func TestFloat64MinMaxReduction(t *testing.T) {
	vals := func(i int64) float64 { return float64((i*7919)%1000) - 500 }
	gotMin := reduceFloat64(ReduceMin, math.Inf(1), 1000, vals)
	gotMax := reduceFloat64(ReduceMax, math.Inf(-1), 1000, vals)
	wantMin, wantMax := math.Inf(1), math.Inf(-1)
	for i := int64(0); i < 1000; i++ {
		wantMin = math.Min(wantMin, vals(i))
		wantMax = math.Max(wantMax, vals(i))
	}
	if gotMin != wantMin || gotMax != wantMax {
		t.Fatalf("min/max = %g/%g, want %g/%g", gotMin, gotMax, wantMin, wantMax)
	}
}

func TestFloat64ReductionIdentity(t *testing.T) {
	cases := map[ReduceOp]float64{
		ReduceSum:  0,
		ReduceProd: 1,
		ReduceMin:  math.Inf(1),
		ReduceMax:  math.Inf(-1),
	}
	for op, want := range cases {
		if got := NewFloat64Reduction(op, 0).Identity(); got != want {
			t.Errorf("float64 identity(%s) = %g, want %g", op, got, want)
		}
	}
}

func TestFloat64ReductionRejectsBitwise(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("float64 reduction with & did not panic")
		}
	}()
	NewFloat64Reduction(ReduceBitAnd, 0)
}

func TestInt64Reductions(t *testing.T) {
	type tc struct {
		op      ReduceOp
		initial int64
		trip    int64
		f       func(int64) int64
		want    int64
	}
	cases := []tc{
		{ReduceSum, 5, 100, func(i int64) int64 { return i }, 5 + 99*100/2},
		{ReduceProd, 1, 20, func(i int64) int64 { return 2 }, 1 << 20},
		{ReduceMin, math.MaxInt64, 100, func(i int64) int64 { return 50 - i }, -49},
		{ReduceMax, math.MinInt64, 100, func(i int64) int64 { return 50 - i }, 50},
		{ReduceBitOr, 0, 8, func(i int64) int64 { return 1 << i }, 0xFF},
		{ReduceBitAnd, -1, 4, func(i int64) int64 { return ^(1 << i) }, ^int64(0xF)},
		{ReduceBitXor, 0, 7, func(i int64) int64 { return i }, 0 ^ 1 ^ 2 ^ 3 ^ 4 ^ 5 ^ 6},
	}
	for _, c := range cases {
		r := NewInt64Reduction(c.op, c.initial)
		Parallel(func(t *Thread) {
			local := r.Identity()
			For(t, c.trip, func(i int64) {
				local = reduceFold(c.op, local, c.f(i))
			})
			r.Combine(local)
		}, NumThreads(4))
		if got := r.Value(); got != c.want {
			t.Errorf("op %s: got %d, want %d", c.op, got, c.want)
		}
	}
}

func TestInt64ReductionIdentity(t *testing.T) {
	cases := map[ReduceOp]int64{
		ReduceSum:    0,
		ReduceProd:   1,
		ReduceMin:    math.MaxInt64,
		ReduceMax:    math.MinInt64,
		ReduceBitAnd: -1,
		ReduceBitOr:  0,
		ReduceBitXor: 0,
	}
	for op, want := range cases {
		if got := NewInt64Reduction(op, 0).Identity(); got != want {
			t.Errorf("int64 identity(%s) = %d, want %d", op, got, want)
		}
	}
}

func TestInt64ReductionRejectsLogical(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("int64 reduction with && did not panic")
		}
	}()
	NewInt64Reduction(ReduceLogicalAnd, 0)
}

func TestBoolReductions(t *testing.T) {
	// AND over 1000 trues with one false at i=617.
	and := NewBoolReduction(ReduceLogicalAnd, true)
	Parallel(func(t *Thread) {
		local := and.Identity()
		For(t, 1000, func(i int64) { local = local && (i != 617) })
		and.Combine(local)
	}, NumThreads(4))
	if and.Value() {
		t.Fatal("AND reduction over a false contribution = true")
	}
	// OR over 1000 falses with one true.
	or := NewBoolReduction(ReduceLogicalOr, false)
	Parallel(func(t *Thread) {
		local := or.Identity()
		For(t, 1000, func(i int64) { local = local || (i == 617) })
		or.Combine(local)
	}, NumThreads(4))
	if !or.Value() {
		t.Fatal("OR reduction over a true contribution = false")
	}
}

func TestBoolReductionIdentity(t *testing.T) {
	if !NewBoolReduction(ReduceLogicalAnd, false).Identity() {
		t.Error("identity(&&) = false, want true")
	}
	if NewBoolReduction(ReduceLogicalOr, true).Identity() {
		t.Error("identity(||) = true, want false")
	}
}

func TestBoolReductionRejectsArithmetic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bool reduction with + did not panic")
		}
	}()
	NewBoolReduction(ReduceSum, false)
}

func TestReduceOpString(t *testing.T) {
	want := map[ReduceOp]string{
		ReduceSum: "+", ReduceProd: "*", ReduceMin: "min", ReduceMax: "max",
		ReduceBitAnd: "&", ReduceBitOr: "|", ReduceBitXor: "^",
		ReduceLogicalAnd: "&&", ReduceLogicalOr: "||",
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("ReduceOp(%d).String() = %q, want %q", op, op.String(), s)
		}
	}
	if ReduceOp(99).String() != "?" {
		t.Error("unknown op should stringify to ?")
	}
}

// The initial value must participate exactly once regardless of team size.
func TestReductionInitialValueOnce(t *testing.T) {
	for _, nth := range []int{1, 2, 7} {
		r := NewInt64Reduction(ReduceSum, 1000)
		Parallel(func(t *Thread) {
			local := r.Identity()
			For(t, 10, func(i int64) { local += 1 })
			r.Combine(local)
		}, NumThreads(nth))
		if got := r.Value(); got != 1010 {
			t.Fatalf("nth=%d: value = %d, want 1010", nth, got)
		}
	}
}
