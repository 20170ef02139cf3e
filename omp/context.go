package omp

import (
	"context"

	"gomp/internal/kmp"
)

// The v2 entry points: error-aware, context-aware parallel regions and the
// OpenMP cancellation constructs. The paper's constructs (Parallel,
// ForRange, …) mirror directives exactly and therefore can neither fail nor
// be interrupted; serving traffic where every request carries a deadline needs
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
// scheduling point, or explicit CancellationPoint. Only ParallelErr can
// report the resulting ctx.Err(); on the void constructs the region simply
// returns early.
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
