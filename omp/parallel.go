package omp

import (
	"context"
	"sync"

	"gomp/internal/kmp"
)

// Option configures a Parallel, For or ParallelFor construct — the analog of
// a directive clause. Options not meaningful for a construct are ignored,
// mirroring how the paper's parser accepts a clause set per directive.
type Option func(*config)

type config struct {
	numThreads int
	sched      Sched
	hasSched   bool
	nowait     bool
	ordered    bool
	ifClause   bool
	hasIf      bool
	loc        kmp.Ident
	ctx        context.Context // region teardown binding (WithContext)

	// Tasking clauses (task.go).
	finalClause bool
	hasFinal    bool
	untied      bool
	mergeable   bool
	grainsize   int64
	numTasks    int64
	nogroup     bool
	priority    int32
	deps        []kmp.DepSpec
}

func (c *config) apply(opts []Option) {
	for _, o := range opts {
		o(c)
	}
}

// Because every Option is an opaque func(*config), applying one forces the
// config to escape; a heap-allocated config per construct would put an
// allocation on the fork fast path that the runtime below works hard to
// keep at zero. Constructs therefore draw their config from a pool (and the
// common clause constructors below hand out cached Options, so the clause
// spelling `omp.Parallel(body, omp.NumThreads(4))` allocates nothing).
var cfgPool = sync.Pool{New: func() any { return new(config) }}

func getConfig(opts []Option) *config {
	c := cfgPool.Get().(*config)
	*c = config{}
	c.apply(opts)
	return c
}

func putConfig(c *config) {
	*c = config{} // drop ctx/deps references before pooling
	cfgPool.Put(c)
}

// numThreadsOpts caches the small team-size requests so the num_threads
// clause is allocation-free for every size a real machine has.
var numThreadsOpts = func() [65]Option {
	var a [65]Option
	for i := range a {
		n := i
		a[i] = func(c *config) { c.numThreads = n }
	}
	return a
}()

// NumThreads is the num_threads clause: request a team of n.
func NumThreads(n int) Option {
	if n >= 0 && n < len(numThreadsOpts) {
		return numThreadsOpts[n]
	}
	return func(c *config) { c.numThreads = n }
}

// Schedule is the schedule clause. chunk 0 means unspecified, as in the
// packed encoding of Section III-A2. mods carries the optional
// monotonic/nonmonotonic schedule modifier: Nonmonotonic (the OpenMP 5.0
// default for dynamic-family kinds) runs the loop on the work-stealing
// engine, Monotonic pins it to the legacy shared-counter dispatch.
func Schedule(kind SchedKind, chunk int64, mods ...SchedModifier) Option {
	return func(c *config) {
		c.sched = Sched{Kind: kind, Chunk: chunk}
		c.hasSched = true
		if kind == Static && chunk > 0 {
			c.sched.Kind = kmp.SchedStaticChunked
		}
		for _, m := range mods {
			if c.sched.Mod != 0 && c.sched.Mod != m {
				// monotonic and nonmonotonic are mutually exclusive
				// (OpenMP 5.2 §11.5.3); silently picking one would hide a
				// correctness assumption at the call site.
				panic("omp: Schedule given both Monotonic and Nonmonotonic modifiers")
			}
			c.sched.Mod = m
		}
	}
}

// NoWait is the nowait clause: skip the implicit barrier at the end of a
// worksharing construct.
func NoWait() Option { return noWaitOpt }

var noWaitOpt Option = func(c *config) { c.nowait = true }

// OrderedClause is the ordered clause of a worksharing loop: the loop's
// chunks dispatch monotonically (the compliance path stealing must not
// reorder) and its body may contain Ordered regions, which then execute in
// sequential iteration order.
func OrderedClause() Option { return orderedOpt }

var orderedOpt Option = func(c *config) { c.ordered = true }

// If is the if clause: when cond is false the parallel region executes on a
// team of one.
func If(cond bool) Option {
	if cond {
		return ifTrueOpt
	}
	return ifFalseOpt
}

var (
	ifTrueOpt  Option = func(c *config) { c.ifClause = true; c.hasIf = true }
	ifFalseOpt Option = func(c *config) { c.ifClause = false; c.hasIf = true }
)

// Loc attaches the pragma's source position; generated code passes it so
// runtime traces point at the user's directive.
func Loc(file string, line int, region string) Option {
	return func(c *config) { c.loc = kmp.Ident{File: file, Line: line, Region: region} }
}

// regionClauses are the clauses a parallel construct consumes: the team size
// (0 = the nthreads-var ICV), the region's source position and the context it
// is bound to.
type regionClauses struct {
	n   int
	loc kmp.Ident
	ctx context.Context
}

// loopClauses are the clauses a worksharing loop consumes.
type loopClauses struct {
	sched  Sched // resolved: schedule(static) when the clause is absent
	loc    kmp.Ident
	nowait bool
}

var (
	defaultRegion = regionClauses{loc: kmp.Ident{Region: "parallel"}}
	defaultLoop   = loopClauses{sched: Sched{Kind: Static}, loc: kmp.Ident{Region: "for"}}
)

// clauses applies opts once and splits the result by consumer, so a
// combined construct pays one config round trip rather than one per half.
func clauses(opts []Option) (regionClauses, loopClauses) {
	if len(opts) == 0 {
		return defaultRegion, defaultLoop
	}
	c := getConfig(opts)
	r := regionClauses{n: c.numThreads, loc: c.loc, ctx: c.ctx}
	if c.hasIf && !c.ifClause {
		r.n = 1
	}
	if r.loc.Region == "" {
		r.loc.Region = "parallel"
	}
	l := loopClauses{sched: Sched{Kind: Static}, loc: c.loc, nowait: c.nowait}
	if c.hasSched {
		l.sched = c.sched
	}
	// The ordered clause needs dispatch's chunk tickets even for static
	// kinds, so every ordered loop routes through the (monotonic) dispatch
	// engine.
	l.sched.Ordered = c.ordered
	if l.loc.Region == "" {
		l.loc.Region = "for"
	}
	putConfig(c)
	return r, l
}

// Parallel runs body as an OpenMP parallel region: the lowering of
// `//omp parallel`. body executes once on every team thread; the call
// returns after the implicit join barrier.
func Parallel(body func(t *Thread), opts ...Option) {
	r, _ := clauses(opts)
	kmp.ForkCallCtx(r.loc, r.n, r.ctx, body)
}

// For runs a worksharing loop of trip iterations inside a parallel region:
// the lowering of `//omp for`. body is invoked for each iteration index in
// [0, trip) assigned to this thread. The loop ends with an implicit barrier
// unless NoWait is given. Without a Schedule option the loop is
// schedule(static).
func For(t *Thread, trip int64, body func(i int64), opts ...Option) {
	ForRange(t, trip, func(lo, hi int64) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	}, opts...)
}

// ForRange is For at chunk granularity: body receives each half-open
// iteration range assigned to this thread. Kernels with vectorisable inner
// loops (the NPB ports) use this form to keep the hot loop free of calls.
//
// An orphaned worksharing loop — t nil because no parallel region encloses
// the construct — binds to a team of one and runs the whole range, as the
// OpenMP standard specifies.
func ForRange(t *Thread, trip int64, body func(lo, hi int64), opts ...Option) {
	_, l := clauses(opts)
	kmp.Loop(t, l.loc, l.sched, trip, body)
	if !l.nowait {
		t.Barrier()
	}
}

// Ordered executes body as the ordered region of the current iteration: the
// lowering of `//omp ordered` inside a loop carrying the ordered clause.
// Iterations' ordered regions run in sequential iteration order; the body
// must be encountered at most once per iteration. Outside an ordered-clause
// loop (including orphaned and serialised constructs) body runs immediately.
func Ordered(t *Thread, body func()) {
	if t == nil {
		body()
		return
	}
	t.Ordered(body)
}

// ParallelFor fuses Parallel and For: the lowering of
// `//omp parallel for`. body receives the executing thread and an iteration
// index in [0, trip).
func ParallelFor(trip int64, body func(t *Thread, i int64), opts ...Option) {
	r, l := clauses(opts)
	kmp.ForkCallLoop(r.loc, r.n, r.ctx, l.sched, trip, nil, body)
}

// ParallelForRange is ParallelFor at chunk granularity. The combined
// construct has one rendezvous, not two: the loop runs nowait and the region
// join is its closing barrier — what clang emits for `parallel for`. The
// loop travels in the runtime's region descriptor, not in a closure, so the
// construct allocates nothing of its own.
func ParallelForRange(trip int64, body func(t *Thread, lo, hi int64), opts ...Option) {
	r, l := clauses(opts)
	kmp.ForkCallLoop(r.loc, r.n, r.ctx, l.sched, trip, body, nil)
}

// Barrier is the barrier directive.
func Barrier(t *Thread) { t.Barrier() }

// Critical runs body in the named critical section; "" is the unnamed one.
func Critical(name string, body func()) { kmp.Critical(name, body) }

// Single runs body on exactly one team thread: the single directive, with
// the implicit barrier unless NoWait.
func Single(t *Thread, body func(), opts ...Option) {
	nowait := false
	if len(opts) > 0 {
		c := getConfig(opts)
		nowait = c.nowait
		putConfig(c)
	}
	if t.Single() {
		body()
	}
	if !nowait {
		t.Barrier()
	}
}

// Masked runs body on the master thread only (the master/masked directive;
// no implied barrier).
func Masked(t *Thread, body func()) {
	if t.Master() {
		body()
	}
}

// Sections distributes the given blocks over the team: the sections
// directive, one section per function, with the implicit barrier unless
// NoWait.
func Sections(t *Thread, blocks []func(), opts ...Option) {
	c := getConfig(opts)
	defer putConfig(c)
	if t == nil || !t.InParallel() {
		for _, b := range blocks { // orphaned: team of one runs them all
			b()
		}
		return
	}
	if c.loc.Region == "" {
		c.loc.Region = "sections"
	}
	t.Sections(c.loc, len(blocks), func(i int) { blocks[i]() })
	if !c.nowait {
		t.Barrier()
	}
}

// ThreadPrivate is the threadprivate directive: one T per thread, persisting
// across regions. Re-exported from the runtime.
type ThreadPrivate[T any] = kmp.ThreadPrivate[T]

// NewThreadPrivate returns a threadprivate variable; newFn builds each
// thread's first instance (nil for zero values).
func NewThreadPrivate[T any](newFn func() *T) *ThreadPrivate[T] {
	return kmp.NewThreadPrivate[T](newFn)
}
