package omp

import (
	"math"
	"testing"
)

func TestGenericIdentities(t *testing.T) {
	if got := NewReduction(ReduceSum, 0.0).Identity(); got != 0 {
		t.Errorf("float sum identity = %g", got)
	}
	if got := NewReduction(ReduceProd, 0).Identity(); got != 1 {
		t.Errorf("int prod identity = %d", got)
	}
	if got := NewReduction[int8](ReduceMin, 0).Identity(); got != math.MaxInt8 {
		t.Errorf("int8 min identity = %d, want %d", got, math.MaxInt8)
	}
	if got := NewReduction[int8](ReduceMax, 0).Identity(); got != math.MinInt8 {
		t.Errorf("int8 max identity = %d, want %d", got, math.MinInt8)
	}
	if got := NewReduction[int64](ReduceMin, 0).Identity(); got != math.MaxInt64 {
		t.Errorf("int64 min identity = %d", got)
	}
	if got := NewReduction[int64](ReduceMax, 0).Identity(); got != math.MinInt64 {
		t.Errorf("int64 max identity = %d", got)
	}
	if got := NewReduction[uint16](ReduceMin, 0).Identity(); got != math.MaxUint16 {
		t.Errorf("uint16 min identity = %d", got)
	}
	if got := NewReduction[uint16](ReduceMax, 9).Identity(); got != 0 {
		t.Errorf("uint16 max identity = %d", got)
	}
	if got := NewReduction[float32](ReduceMin, 0).Identity(); !math.IsInf(float64(got), 1) {
		t.Errorf("float32 min identity = %g", got)
	}
	if got := NewReduction[uint8](ReduceBitAnd, 0).Identity(); got != 0xFF {
		t.Errorf("uint8 bitand identity = %x", got)
	}
	if got := NewReduction[int32](ReduceBitAnd, 0).Identity(); got != -1 {
		t.Errorf("int32 bitand identity = %d", got)
	}
}

func TestGenericReductionEndToEnd(t *testing.T) {
	// The preprocessor-generated pattern, with type inferred from the
	// seed variable.
	sum := 3.5
	r := NewReduction(ReduceSum, sum)
	Parallel(func(th *Thread) {
		local := r.Identity()
		For(th, 1000, func(i int64) { local += 0.5 })
		r.Combine(local)
	}, NumThreads(4))
	if got := r.Value(); got != 3.5+500 {
		t.Fatalf("generic sum = %g, want 503.5", got)
	}

	prod := NewReduction(ReduceProd, int64(3))
	Parallel(func(th *Thread) {
		local := prod.Identity()
		For(th, 10, func(i int64) { local *= 2 })
		prod.Combine(local)
	}, NumThreads(4))
	if got := prod.Value(); got != 3*1024 {
		t.Fatalf("generic prod = %d, want 3072", got)
	}
}

func TestGenericBitwise(t *testing.T) {
	or := NewReduction(ReduceBitOr, uint32(0))
	Parallel(func(th *Thread) {
		local := or.Identity()
		For(th, 8, func(i int64) { local |= 1 << uint(i) })
		or.Combine(local)
	}, NumThreads(3))
	if got := or.Value(); got != 0xFF {
		t.Fatalf("generic or = %x, want ff", got)
	}

	and := NewReduction(ReduceBitAnd, int32(-1))
	Parallel(func(th *Thread) {
		local := and.Identity()
		For(th, 4, func(i int64) { local &= ^(int32(1) << uint(i)) })
		and.Combine(local)
	}, NumThreads(2))
	if got := and.Value(); got != ^int32(0xF) {
		t.Fatalf("generic and = %x, want %x", got, ^int32(0xF))
	}

	xor := NewReduction(ReduceBitXor, uint64(0))
	Parallel(func(th *Thread) {
		local := xor.Identity()
		For(th, 7, func(i int64) { local ^= uint64(i) })
		xor.Combine(local)
	}, NumThreads(2))
	want := uint64(0 ^ 1 ^ 2 ^ 3 ^ 4 ^ 5 ^ 6)
	if got := xor.Value(); got != want {
		t.Fatalf("generic xor = %x, want %x", got, want)
	}
}

func TestGenericMinMax(t *testing.T) {
	mn := NewReduction(ReduceMin, math.Inf(1))
	mx := NewReduction(ReduceMax, math.Inf(-1))
	Parallel(func(th *Thread) {
		lmn, lmx := mn.Identity(), mx.Identity()
		For(th, 1000, func(i int64) {
			v := float64((i*31)%997) - 500
			lmn = math.Min(lmn, v)
			lmx = math.Max(lmx, v)
		})
		mn.Combine(lmn)
		mx.Combine(lmx)
	}, NumThreads(4))
	wantMn, wantMx := math.Inf(1), math.Inf(-1)
	for i := int64(0); i < 1000; i++ {
		v := float64((i*31)%997) - 500
		wantMn = math.Min(wantMn, v)
		wantMx = math.Max(wantMx, v)
	}
	if mn.Value() != wantMn || mx.Value() != wantMx {
		t.Fatalf("min/max = %g/%g, want %g/%g", mn.Value(), mx.Value(), wantMn, wantMx)
	}
}

func TestGenericRejectsLogical(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewReduction(&&) did not panic")
		}
	}()
	NewReduction(ReduceLogicalAnd, 1)
}

func TestGenericBitAndOnFloatPanics(t *testing.T) {
	r := NewReduction(ReduceBitAnd, 1.0)
	defer func() {
		if recover() == nil {
			t.Fatal("Identity of float bitand did not panic")
		}
	}()
	r.Identity()
}

func TestCurrentMatchesThread(t *testing.T) {
	Parallel(func(th *Thread) {
		if Current() != th {
			t.Errorf("Current() != th inside region")
		}
	}, NumThreads(3))
	if Current() != nil {
		t.Error("Current() outside region != nil")
	}
}

// Min/max reductions must propagate NaN like math.Min/math.Max: a corrupt
// partial surfaces in the result instead of losing every comparison.
func TestReductionNaNPropagates(t *testing.T) {
	nan := math.NaN()
	for _, op := range []ReduceOp{ReduceMin, ReduceMax} {
		r := NewReduction(op, 1.0)
		r.Combine(5.0)
		r.Combine(nan)
		r.Combine(2.0)
		if v := r.Value(); !math.IsNaN(v) {
			t.Errorf("generic %s with NaN partial = %v, want NaN", op, v)
		}
		f := NewFloat64Reduction(op, 1.0)
		f.Combine(nan)
		f.Combine(3.0)
		if v := f.Value(); !math.IsNaN(v) {
			t.Errorf("float64 %s with NaN partial = %v, want NaN", op, v)
		}
	}
}
