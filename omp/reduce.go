package omp

// ReduceOp enumerates the OpenMP reduction-clause operators.
type ReduceOp int

const (
	// ReduceSum is reduction(+:…); OpenMP's - operator reduces
	// identically to +, so it shares this op.
	ReduceSum ReduceOp = iota
	// ReduceProd is reduction(*:…), which the paper lowers onto the CAS
	// loop of its Listing 6.
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
	// ReduceLogicalAnd is reduction(&&:…), over bool (ReduceBool).
	ReduceLogicalAnd
	// ReduceLogicalOr is reduction(||:…), over bool (ReduceBool).
	ReduceLogicalOr
)

// String returns the OpenMP surface operator.
func (op ReduceOp) String() string {
	if op < 0 || int(op) >= len(opNames) {
		return "?"
	}
	return opNames[op]
}

var opNames = [...]string{"+", "*", "min", "max", "&", "|", "^", "&&", "||"}
