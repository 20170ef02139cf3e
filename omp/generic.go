package omp

import (
	"math"
	"sync/atomic"
	"unsafe"

	"gomp/internal/kmp"
)

// Current returns the calling goroutine's thread context, or nil outside any
// parallel region. Preprocessor-generated code uses it to service orphaned
// worksharing constructs (a //omp for with no lexically enclosing parallel).
func Current() *Thread { return kmp.Current() }

// Integer is the type set of a canonical loop's variable and of the
// bitwise atomic updates: any integer type.
type Integer = kmp.Integer

// Numeric constrains the generic reduction and the atomic updates to the
// types the reduction clause accepts for arithmetic and bitwise operators.
type Numeric interface {
	Integer | ~float32 | ~float64
}

// Reduce is the lowering of every reduction clause: every thread of t's
// team calls it with its partial, and the last to reach the barrier folds
// *v op partial[0] op … op partial[n−1], in thread order, before it
// releases the team ("Reductions" in the package doc). A nil thread folds
// inline. Type inference from v spares generated code from naming types —
// the trick the paper plays with Zig's type inference to survive
// preprocessing without semantic context (Section III-B3).
func Reduce[T Numeric](t *Thread, op ReduceOp, v *T, local T) {
	checkOp[T](op)
	t.Reduce(bitsOf(local), func(p kmp.Partials) {
		acc := *v
		for i := range p.Len() {
			acc = reduceFold(op, acc, fromBits[T](p.At(i)))
		}
		*v = acc
	})
}

// ReduceBool is Reduce for the logical operators, && and ||, over a bool
// variable.
func ReduceBool[B ~bool](t *Thread, op ReduceOp, v *B, local B) {
	and := op == ReduceLogicalAnd
	if !and && op != ReduceLogicalOr {
		panic("omp: ReduceBool requires && or ||")
	}
	var bits uint64
	if local {
		bits = 1
	}
	t.Reduce(bits, func(p kmp.Partials) {
		for i := range p.Len() {
			if x := p.At(i) != 0; x != and { // a false decides &&, a true ||
				*v = B(x)
			}
		}
	})
}

// checkOp panics on an operator the reduction clause does not define for T:
// the logical ones (ReduceBool's) and, for floating-point T, the bitwise
// ones.
func checkOp[T Numeric](op ReduceOp) {
	switch op {
	case ReduceLogicalAnd, ReduceLogicalOr:
		panic("omp: logical reduction operators apply to bool; use ReduceBool")
	case ReduceBitAnd, ReduceBitOr, ReduceBitXor:
		if isFloat[T]() {
			panic("omp: reduction operator " + op.String() + " not defined for floating-point types")
		}
	}
}

// Reduction is the arrival-order reduction cell, for combines no construct
// orders, such as explicit tasks folding partials as they finish. The value
// lives as its bit pattern in an atomic.Uint64; partials fold in T's
// domain inside the paper's Listing 6 CAS loop, and integer sums take the
// native RMW fast path.
type Reduction[T Numeric] struct {
	op   ReduceOp
	bits atomic.Uint64
}

// NewReduction builds a reduction cell seeded with initial.
func NewReduction[T Numeric](op ReduceOp, initial T) *Reduction[T] {
	checkOp[T](op)
	r := &Reduction[T]{op: op}
	r.bits.Store(bitsOf(initial))
	return r
}

// Identity returns the operator's identity element for T.
func (r *Reduction[T]) Identity() T {
	var zero T
	switch r.op {
	case ReduceProd:
		return zero + 1
	case ReduceMin:
		return maxValue[T]()
	case ReduceMax:
		return minValue[T]()
	case ReduceBitAnd:
		return allOnes[T]()
	default:
		return zero
	}
}

// Combine folds a thread's partial into the shared result; call once per
// thread after private accumulation. Integer sums use the native atomic add
// (two's-complement addition commutes with the bits encoding); every other
// operator folds in T's domain under the CAS loop.
func (r *Reduction[T]) Combine(partial T) {
	if r.op == ReduceSum && !isFloat[T]() {
		r.bits.Add(bitsOf(partial))
		return
	}
	cur := r.bits.Load()
	for !r.bits.CompareAndSwap(cur, bitsOf(reduceFold(r.op, fromBits[T](cur), partial))) {
		cur = r.bits.Load()
	}
}

// Value returns the reduced result; call after the parallel region joins.
func (r *Reduction[T]) Value() T { return fromBits[T](r.bits.Load()) }

// reduceFold applies op to two values of T. Logical operators are excluded
// by construction (checkOp panics on them). Min/max propagate NaN like
// math.Min/math.Max — a corrupt partial must surface in the result, not be
// silently discarded by an always-false comparison.
func reduceFold[T Numeric](op ReduceOp, a, b T) T {
	switch op {
	case ReduceSum:
		return a + b
	case ReduceProd:
		return a * b
	case ReduceMin:
		if a != a { // NaN (floats only: x != x is never true for integers)
			return a
		}
		if b != b || b < a {
			return b
		}
		return a
	case ReduceMax:
		if a != a {
			return a
		}
		if b != b || b > a {
			return b
		}
		return a
	case ReduceBitAnd: // integers only (checkOp): bitsOf is two's complement
		return fromBits[T](bitsOf(a) & bitsOf(b))
	case ReduceBitOr:
		return fromBits[T](bitsOf(a) | bitsOf(b))
	case ReduceBitXor:
		return fromBits[T](bitsOf(a) ^ bitsOf(b))
	}
	return a
}

// isFloat reports whether T is a floating-point type. The probe is
// structural — 1/2 is zero exactly for the integer types — so named float
// types (`type celsius float64`) are classified correctly, which a type
// switch on any(zero) would miss.
func isFloat[T Numeric]() bool {
	var zero T
	return T(1)/T(2) != zero
}

// bitsOf encodes v as the uint64 bit pattern the shared cell stores: IEEE
// bits for floats (32-bit floats occupy the low word), sign-extended
// two's complement for integers.
func bitsOf[T Numeric](v T) uint64 {
	if isFloat[T]() {
		if unsafe.Sizeof(v) == 4 {
			return uint64(math.Float32bits(float32(v)))
		}
		return math.Float64bits(float64(v))
	}
	return uint64(int64(v))
}

// fromBits decodes bitsOf's encoding back to T.
func fromBits[T Numeric](b uint64) T {
	var zero T
	if isFloat[T]() {
		if unsafe.Sizeof(zero) == 4 {
			return T(math.Float32frombits(uint32(b)))
		}
		return T(math.Float64frombits(b))
	}
	return T(int64(b))
}

// Bit operators are not defined across the whole Numeric type set, so the
// extreme-value helpers below use arithmetic: unsigned types are recognised
// by 0-1 wrapping to the maximum, and signed maxima are 2^(bits-1) - 1,
// computed in int64 (where 1<<63 - 1 wraps to the maximum, as Go defines).

// maxValue returns the largest representable T (min-reduction identity).
func maxValue[T Numeric]() T {
	var zero T
	switch {
	case isFloat[T]():
		return T(math.Inf(1))
	case zero-1 > zero: // unsigned: wraps to all ones
		return zero - 1
	}
	return T(int64(1)<<(8*unsafe.Sizeof(zero)-1) - 1)
}

// minValue returns the smallest representable T (max-reduction identity).
func minValue[T Numeric]() T {
	var zero T
	if isFloat[T]() {
		return T(math.Inf(-1))
	}
	if zero-1 > zero { // unsigned
		return zero
	}
	return -maxValue[T]() - 1 // two's complement
}

// allOnes returns the bit-and identity (~0). For both signed (-1) and
// unsigned (max), that is 0-1. Panics for floats, like checkOp.
func allOnes[T Numeric]() T {
	var zero T
	if isFloat[T]() {
		panic("omp: bitwise reduction on floating-point type")
	}
	return zero - 1
}
