package omp

import "gomp/internal/kmp"

// Type-safe collection-level constructs: the v2 surface a Go program reaches
// for first, built on the directive-shaped primitives. Where Parallel/For
// mirror pragmas one-to-one (and so take raw trip counts and untyped
// closures), ForEach and ReduceInto carry the types through generics, return
// errors, and honour WithContext — the "importable library" half of the
// paper's API that pragma lowering alone cannot express.

// ForEach workshares the elements of s across a team: body receives each
// index and a pointer to its element on the executing thread. The schedule,
// team size, and context bindings come from the usual options. It returns
// the first error a thread's panic produced or the context's error when a
// WithContext deadline cancelled the region mid-loop; remaining chunks are
// then not dispatched.
func ForEach[S ~[]E, E any](s S, body func(t *Thread, i int64, v *E), opts ...Option) error {
	return ParallelForErr(int64(len(s)), func(t *Thread, i int64) error {
		body(t, i, &s[i])
		return nil
	}, opts...)
}

// ReduceInto runs body over [0, trip) as a parallel reduction with operator
// op: each thread folds its share into a private accumulator seeded with the
// operator's identity, and the partials fold in thread order (Reduce) into a
// copy of *into, whose prior value participates once as the standard
// requires; the result is written back to *into. body receives the running
// private accumulator and returns its new value.
//
// On error (a panicking thread, or a WithContext deadline) *into is left
// untouched and the error is returned, so a caller can retry or fall back to
// a serial loop without unpicking a half-combined result.
func ReduceInto[T Numeric](op ReduceOp, into *T, trip int64, body func(t *Thread, i int64, acc T) T, opts ...Option) error {
	checkOp[T](op)
	res := *into
	id := ReduceIdentity(op, res)
	r, l := clauses(opts)
	sched := l.sched
	err := kmp.ForkCallErr(r.loc, r.n, r.ctx, func(t *Thread) error {
		acc := id
		kmp.Loop(t, kmp.Ident{}, sched, trip, func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				acc = body(t, i, acc)
			}
		})
		Reduce(t, op, &res, acc)
		return nil
	})
	if err != nil {
		return err
	}
	*into = res
	return nil
}
