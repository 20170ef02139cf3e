package omp

import "gomp/internal/kmp"

// This file holds the entry points that exist for the preprocessor's
// generated code — the analog of the paper's `.omp.internal` namespace of
// helpers that "are not intended to be used by programmers directly"
// (Section III-C), though nothing stops direct use.

// TripCount re-exports the runtime's canonical-loop trip count so generated
// code needs only the omp import: iterations of `for i := lb; i CMP ub;
// i += st`, with inclusive selecting <=/>=.
func TripCount(lb, ub, st int64, inclusive bool) int64 {
	return kmp.TripCount(lb, ub, st, inclusive)
}

// ReduceIdentity returns the identity element of op for T, inferred from a
// sample value (the reduction variable itself). Generated reductions
// initialise each thread's copy with it, as the OpenMP standard requires.
func ReduceIdentity[T Numeric](op ReduceOp, sample T) T {
	_ = sample // only for type inference
	r := Reduction[T]{op: op}
	return r.Identity()
}

// CopyPrivateAssign stores the single-construct winner's published value
// into dst, inferring the type from the destination — the copyprivate
// lowering. The caller must be past the barrier that orders publish before
// fetch.
func CopyPrivateAssign[T any](t *Thread, dst *T) {
	if t == nil || !t.InParallel() {
		return // team of one: dst already holds the value
	}
	*dst = t.CopyPrivateFetch().(T)
}

// CopyPrivatePublish makes v available to CopyPrivateAssign on the other
// team threads. Call from the Single winner before the separating barrier.
func CopyPrivatePublish(t *Thread, v any) {
	if t == nil || !t.InParallel() {
		return
	}
	t.CopyPrivatePublish(v)
}
