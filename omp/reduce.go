package omp

import (
	"sync"

	"gomp/internal/atomicx"
)

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

// CombineStrategy selects how per-thread partial results meet the shared
// result — ablation axis A1 (BenchmarkAblationReduction* in bench_test.go).
type CombineStrategy int

const (
	// CombineAtomic merges partials into a shared atomic cell, the
	// paper's lowering: native RMW where available, the Listing 6 CAS
	// loop otherwise.
	CombineAtomic CombineStrategy = iota
	// CombineCritical merges partials under a mutex — what a
	// __kmpc_reduce critical-path fallback does in libomp.
	CombineCritical
)

// typedReduction adds the critical-path ablation strategy on top of the
// generic atomic cell: the v1 per-type reduction API, now a single
// implementation instantiated at int64 and float64. The atomic path is
// exactly Reduction[T]; the critical path folds under a mutex with the same
// operator table.
type typedReduction[T Numeric] struct {
	g        Reduction[T]
	strategy CombineStrategy
	mu       sync.Mutex
	plain    T
}

func (r *typedReduction[T]) init(op ReduceOp, initial T, s CombineStrategy) {
	r.strategy = s
	r.plain = initial
	r.g.op = op
	r.g.bits.Store(bitsOf(initial))
}

// Identity returns the operator's identity element, the value each thread's
// private copy must start from.
func (r *typedReduction[T]) Identity() T { return r.g.Identity() }

// Combine folds a thread's partial into the shared result. Call exactly once
// per thread, after private accumulation.
func (r *typedReduction[T]) Combine(partial T) {
	if r.strategy == CombineCritical {
		r.mu.Lock()
		r.plain = reduceFold(r.g.op, r.plain, partial)
		r.mu.Unlock()
		return
	}
	r.g.Combine(partial)
}

// Value returns the reduced result; call after the parallel region joins.
func (r *typedReduction[T]) Value() T {
	if r.strategy == CombineCritical {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.plain
	}
	return r.g.Value()
}

// ---------------------------------------------------------------- float64

// Float64Reduction lowers a reduction clause over a float64 variable.
//
// Per the OpenMP standard (and Section III-B1 of the paper), each thread
// starts from the operator's identity — Identity() — accumulates privately,
// and folds its partial into the shared result with Combine. The original
// variable's value participates once, via the initial value given at
// construction. Value() returns the final result after the region joins.
type Float64Reduction struct {
	typedReduction[float64]
}

// NewFloat64Reduction builds a reduction cell seeded with the reduction
// variable's pre-region value, using the paper's atomic combine.
func NewFloat64Reduction(op ReduceOp, initial float64) *Float64Reduction {
	return NewFloat64ReductionWith(op, initial, CombineAtomic)
}

// NewFloat64ReductionWith selects the combine strategy explicitly.
func NewFloat64ReductionWith(op ReduceOp, initial float64, s CombineStrategy) *Float64Reduction {
	switch op {
	case ReduceSum, ReduceProd, ReduceMin, ReduceMax:
	default:
		panic("omp: reduction operator " + op.String() + " not defined for float64")
	}
	r := &Float64Reduction{}
	r.init(op, initial, s)
	return r
}

// ------------------------------------------------------------------ int64

// Int64Reduction lowers a reduction clause over an integer variable.
// See Float64Reduction for the protocol.
type Int64Reduction struct {
	typedReduction[int64]
}

// NewInt64Reduction builds a reduction cell seeded with the reduction
// variable's pre-region value, using the paper's atomic combine.
func NewInt64Reduction(op ReduceOp, initial int64) *Int64Reduction {
	return NewInt64ReductionWith(op, initial, CombineAtomic)
}

// NewInt64ReductionWith selects the combine strategy explicitly.
func NewInt64ReductionWith(op ReduceOp, initial int64, s CombineStrategy) *Int64Reduction {
	switch op {
	case ReduceLogicalAnd, ReduceLogicalOr:
		panic("omp: logical reduction operators apply to bool; use BoolReduction")
	}
	r := &Int64Reduction{}
	r.init(op, initial, s)
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
