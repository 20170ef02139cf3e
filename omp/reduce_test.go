package omp

import (
	"math"
	"testing"
)

// reduceFloat64 runs the lowering of a loop-level float64 reduction over
// [0,trip) where each iteration contributes f(i).
func reduceFloat64(op ReduceOp, initial float64, trip int64, f func(int64) float64) float64 {
	v := initial
	Parallel(func(t *Thread) {
		local := ReduceIdentity(op, &v)
		ForRange(t, trip, func(lo, hi int64) {
			for i := lo; i < hi; i++ {
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
			}
		}, NoWait())
		Reduce(t, op, &v, local)
	}, NumThreads(4))
	return v
}

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
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
		if got := ReduceIdentity(op, new(float64)); got != want {
			t.Errorf("float64 identity(%s) = %g, want %g", op, got, want)
		}
	}
}

// The bitwise operators are not defined for floats: both the clause's
// lowering and the arrival-order cell refuse them instead of folding the
// values' integer conversions (| of 1.5 and 2.5 would give 3).
func TestFloat64ReductionRejectsBitwise(t *testing.T) {
	for _, op := range []ReduceOp{ReduceBitAnd, ReduceBitOr, ReduceBitXor} {
		mustPanic(t, "Reduce on float64 with "+op.String(), func() {
			v := 1.5
			Reduce(nil, op, &v, 2.5)
		})
		mustPanic(t, "NewReduction on float64 with "+op.String(), func() { NewReduction(op, 1.5) })
		mustPanic(t, "NewReduction on float32 with "+op.String(), func() { NewReduction(op, float32(1.5)) })
	}
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
		v := c.initial
		Parallel(func(t *Thread) {
			local := ReduceIdentity(c.op, &v)
			ForRange(t, c.trip, func(lo, hi int64) {
				for i := lo; i < hi; i++ {
					local = reduceFold(c.op, local, c.f(i))
				}
			}, NoWait())
			Reduce(t, c.op, &v, local)
		}, NumThreads(4))
		if v != c.want {
			t.Errorf("op %s: got %d, want %d", c.op, v, c.want)
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
		if got := ReduceIdentity(op, new(int64)); got != want {
			t.Errorf("int64 identity(%s) = %d, want %d", op, got, want)
		}
	}
}

func TestInt64ReductionRejectsLogical(t *testing.T) {
	for _, op := range []ReduceOp{ReduceLogicalAnd, ReduceLogicalOr} {
		mustPanic(t, "Reduce on int64 with "+op.String(), func() {
			var v int64
			Reduce(nil, op, &v, 1)
		})
		mustPanic(t, "NewReduction on int64 with "+op.String(), func() { NewReduction(op, int64(0)) })
	}
}

func TestBoolReductions(t *testing.T) {
	// AND over 1000 trues with one false at i=617.
	and := true
	Parallel(func(t *Thread) {
		local := true
		ForRange(t, 1000, func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				local = local && (i != 617)
			}
		}, NoWait())
		ReduceBool(t, ReduceLogicalAnd, &and, local)
	}, NumThreads(4))
	if and {
		t.Fatal("AND reduction over a false contribution = true")
	}
	// OR over 1000 falses with one true, into a named bool type.
	type flag bool
	var or flag
	Parallel(func(t *Thread) {
		var local flag
		ForRange(t, 1000, func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				local = local || (i == 617)
			}
		}, NoWait())
		ReduceBool(t, ReduceLogicalOr, &or, local)
	}, NumThreads(4))
	if !or {
		t.Fatal("OR reduction over a true contribution = false")
	}
}

// Partials equal to the operator's identity (true for &&, false for ||)
// leave the variable's own value as the result.
func TestBoolReductionIdentity(t *testing.T) {
	for _, nth := range []int{1, 3} {
		and, or := false, true
		Parallel(func(t *Thread) {
			ReduceBool(t, ReduceLogicalAnd, &and, true)
			ReduceBool(t, ReduceLogicalOr, &or, false)
		}, NumThreads(nth))
		if and || !or {
			t.Errorf("nth=%d: identity partials changed the variables: && gave %v, || gave %v", nth, and, or)
		}
	}
}

func TestBoolReductionRejectsArithmetic(t *testing.T) {
	for _, op := range []ReduceOp{ReduceSum, ReduceMax, ReduceBitOr} {
		mustPanic(t, "ReduceBool with "+op.String(), func() {
			var b bool
			ReduceBool(nil, op, &b, true)
		})
	}
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
		v := int64(1000)
		Parallel(func(t *Thread) {
			var local int64
			ForRange(t, 10, func(lo, hi int64) { local += hi - lo }, NoWait())
			Reduce(t, ReduceSum, &v, local)
		}, NumThreads(nth))
		if v != 1010 {
			t.Fatalf("nth=%d: value = %d, want 1010", nth, v)
		}
	}
}

// Reduce folds v op partial[0] op … op partial[n-1] in thread order, and
// every thread reads the result once it returns. The values make float
// addition's order visible: from 0.1, adding 1, 0.3 and 2/3 in that order
// gives 2.066666666666667, and each of the other five orders gives
// 2.0666666666666664.
func TestReduceThreadOrder(t *testing.T) {
	parts := []float64{1, 0.3, 2.0 / 3}
	want := 0.1
	for _, p := range parts {
		want += p
	}
	for round := 0; round < 50; round++ {
		v := 0.1
		var seen [3]float64
		Parallel(func(t *Thread) {
			Reduce(t, ReduceSum, &v, parts[t.Tid])
			seen[t.Tid] = v
		}, NumThreads(3))
		if v != want || seen != [3]float64{want, want, want} {
			t.Fatalf("round %d: sum %.17g, threads read %v after Reduce; want %.17g everywhere", round, v, seen, want)
		}
	}
}

// Outside any region — an orphaned construct — Reduce folds the caller's
// partial inline.
func TestReduceNilThreadFoldsInline(t *testing.T) {
	v := 2.0
	Reduce(Current(), ReduceProd, &v, 3.0)
	b := true
	ReduceBool(Current(), ReduceLogicalAnd, &b, false)
	if v != 6 || b {
		t.Fatalf("inline fold: v = %g, b = %v; want 6 and false", v, b)
	}
}
