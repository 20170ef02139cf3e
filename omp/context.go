package omp

import (
	"context"

	"gomp/internal/kmp"
)

// The v2 entry points: error-aware, context-aware parallel regions and the
// OpenMP cancellation constructs. The paper's constructs (Parallel, For, …)
// mirror directives exactly and therefore can neither fail nor be
// interrupted; serving traffic where every request carries a deadline needs
// both, so these wrappers bind a region to a context.Context and surface
// panics and errors instead of crashing the process. The runtime half lives
// in internal/kmp/cancel.go.

// CancelKind selects the construct a Cancel or CancellationPoint binds to:
// the argument of the cancel directive.
type CancelKind = kmp.CancelKind

const (
	// CancelParallel cancels the innermost enclosing parallel region.
	CancelParallel = kmp.CancelParallel
	// CancelFor cancels the innermost enclosing worksharing loop.
	CancelFor = kmp.CancelLoop
	// CancelTaskgroup cancels the innermost enclosing taskgroup.
	CancelTaskgroup = kmp.CancelTaskgroup
)

// WithContext binds ctx to the parallel region: when ctx is cancelled or its
// deadline passes, region cancellation activates and every team thread stops
// at its next cancellation point — the next loop chunk, barrier, task
// scheduling point, or explicit CancellationPoint. Only the error-returning
// entry points (ParallelErr, ParallelForErr, ForEach, ReduceInto) can report
// the resulting ctx.Err(); on the void constructs the region simply returns
// early.
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

// ParallelErr is Parallel for code that can fail: body runs once on every
// team thread, and the call returns the first non-nil error any thread
// returned — which also cancels the rest of the team — or the context's
// error when a WithContext deadline tore the region down. A panic on any
// team thread is recovered and returned as an error instead of crashing the
// process. The team is always cancellable, regardless of OMP_CANCELLATION.
func ParallelErr(body func(t *Thread) error, opts ...Option) error {
	r, _ := clauses(opts)
	return kmp.ForkCallErr(r.loc, r.n, r.ctx, body)
}

// ParallelForErr fuses ParallelErr and For: body receives each iteration of
// [0, trip) on some team thread and may return an error, which cancels the
// team — remaining chunks are not dispatched — and becomes the call's
// result. With WithContext, a deadline mid-loop stops iteration at the next
// chunk boundary and returns the context's error.
func ParallelForErr(trip int64, body func(t *Thread, i int64) error, opts ...Option) error {
	r, l := clauses(opts)
	sched := l.sched
	return kmp.ForkCallErr(r.loc, r.n, r.ctx, func(t *Thread) error {
		var first error
		// No per-iteration cancellation probe: the loop drivers already
		// observe the region flag at every chunk boundary (DispatchNext,
		// forStaticCancel), which is the granularity this construct
		// promises; an error ends the erring thread's own chunk via the
		// return below. Like ParallelFor, the loop runs nowait: the join
		// is its closing barrier.
		kmp.Loop(t, kmp.Ident{}, sched, trip, func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				if err := body(t, i); err != nil {
					first = err
					t.Cancel(kmp.CancelParallel)
					return
				}
			}
		})
		return first
	})
}

// Cancel is the cancel directive: it requests cancellation of the innermost
// enclosing construct of the given kind and reports whether the encountering
// thread must branch to that construct's end (generated code returns from
// the outlined block when Cancel reports true). Cancellation must be
// enabled — OMP_CANCELLATION/SetCancellation, or a region launched through
// ParallelErr/WithContext — otherwise Cancel is a no-op returning false, as
// the standard specifies.
func Cancel(t *Thread, kind CancelKind) bool { return t.Cancel(kind) }

// CancellationPoint is the cancellation point directive: it reports whether
// cancellation of the given kind is active for the innermost enclosing
// construct, in which case the encountering thread must branch to that
// construct's end.
func CancellationPoint(t *Thread, kind CancelKind) bool { return t.CancellationPoint(kind) }
