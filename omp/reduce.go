package omp

import "gomp/internal/atomicx"

// ReduceOp enumerates the OpenMP reduction-clause operators.
type ReduceOp int

const (
	// ReduceSum is reduction(+:…); OpenMP's - operator reduces
	// identically to +, so it shares this op.
	ReduceSum ReduceOp = iota
	// ReduceProd is reduction(*:…) — the operator whose atomic lowering
	// needs the CAS loop of the paper's Listing 6.
	ReduceProd
	// ReduceMin is reduction(min:…).
	ReduceMin
	// ReduceMax is reduction(max:…).
	ReduceMax
	// ReduceBitAnd is reduction(&:…).
	ReduceBitAnd
	// ReduceBitOr is reduction(|:…).
	ReduceBitOr
	// ReduceBitXor is reduction(^:…).
	ReduceBitXor
	// ReduceLogicalAnd is reduction(&&:…), also CAS-loop lowered.
	ReduceLogicalAnd
	// ReduceLogicalOr is reduction(||:…), also CAS-loop lowered.
	ReduceLogicalOr
)

// String returns the OpenMP surface operator.
func (op ReduceOp) String() string {
	switch op {
	case ReduceSum:
		return "+"
	case ReduceProd:
		return "*"
	case ReduceMin:
		return "min"
	case ReduceMax:
		return "max"
	case ReduceBitAnd:
		return "&"
	case ReduceBitOr:
		return "|"
	case ReduceBitXor:
		return "^"
	case ReduceLogicalAnd:
		return "&&"
	case ReduceLogicalOr:
		return "||"
	}
	return "?"
}

// ---------------------------------------------------------------- float64

// Float64Reduction lowers a reduction clause over a float64 variable: the
// generic atomic cell (generic.go) instantiated at float64.
//
// Per the OpenMP standard (and Section III-B1 of the paper), each thread
// starts from the operator's identity — Identity() — accumulates privately,
// and folds its partial into the shared result with Combine. The original
// variable's value participates once, via the initial value given at
// construction. Value() returns the final result after the region joins.
type Float64Reduction struct {
	Reduction[float64]
}

// NewFloat64Reduction builds a reduction cell seeded with the reduction
// variable's pre-region value.
func NewFloat64Reduction(op ReduceOp, initial float64) *Float64Reduction {
	switch op {
	case ReduceSum, ReduceProd, ReduceMin, ReduceMax:
	default:
		panic("omp: reduction operator " + op.String() + " not defined for float64")
	}
	r := &Float64Reduction{Reduction[float64]{op: op}}
	r.bits.Store(bitsOf(initial))
	return r
}

// ------------------------------------------------------------------ int64

// Int64Reduction lowers a reduction clause over an integer variable.
// See Float64Reduction for the protocol.
type Int64Reduction struct {
	Reduction[int64]
}

// NewInt64Reduction builds a reduction cell seeded with the reduction
// variable's pre-region value.
func NewInt64Reduction(op ReduceOp, initial int64) *Int64Reduction {
	switch op {
	case ReduceLogicalAnd, ReduceLogicalOr:
		panic("omp: logical reduction operators apply to bool; use BoolReduction")
	}
	r := &Int64Reduction{Reduction[int64]{op: op}}
	r.bits.Store(bitsOf(initial))
	return r
}

// ------------------------------------------------------------------- bool

// BoolReduction lowers reduction(&&:…) and reduction(||:…), the logical
// operators the paper implements with the CAS loop because no atomic
// logical RMW exists.
type BoolReduction struct {
	op   ReduceOp
	cell atomicx.Bool
}

// NewBoolReduction builds a logical reduction seeded with the variable's
// pre-region value.
func NewBoolReduction(op ReduceOp, initial bool) *BoolReduction {
	if op != ReduceLogicalAnd && op != ReduceLogicalOr {
		panic("omp: BoolReduction requires && or ||")
	}
	r := &BoolReduction{op: op}
	r.cell.Store(initial)
	return r
}

// Identity returns true for && and false for ||.
func (r *BoolReduction) Identity() bool { return r.op == ReduceLogicalAnd }

// Combine folds a thread's partial into the shared result.
func (r *BoolReduction) Combine(partial bool) {
	if r.op == ReduceLogicalAnd {
		r.cell.LogicalAnd(partial)
	} else {
		r.cell.LogicalOr(partial)
	}
}

// Value returns the reduced result; call after the parallel region joins.
func (r *BoolReduction) Value() bool { return r.cell.Load() }
