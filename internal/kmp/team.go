package kmp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Ident describes the source location of a lowered construct, the analog of
// libomp's ident_t that every __kmpc_* entry point receives. The
// preprocessor fills it from the pragma's position; hand-written callers may
// leave it zero.
type Ident struct {
	File   string
	Line   int
	Region string // e.g. "parallel", "for", "critical(name)"
}

func (id Ident) String() string {
	if id.File == "" {
		return id.Region
	}
	return fmt.Sprintf("%s:%d %s", id.File, id.Line, id.Region)
}

// Microtask is the outlined parallel-region body: what the paper generates a
// Zig function for and passes to __kmpc_fork_call. The three marshalled
// variable groups of the paper (firstprivate, shared, reduction) become
// ordinary closure captures in Go; Thread carries gtid/tid.
type Microtask func(t *Thread)

// The region-publication word (handshake.gen) packs a monotonically
// increasing counter in the high bits and the region's team size in the low
// genNBits, so a worker learns "there is a new region" and "am I in it" from
// a single load. Size 0 is the dispose sentinel: workers unregister and exit.
const (
	genNBits    = 16
	genNMask    = 1<<genNBits - 1
	maxTeamSize = genNMask
)

// work is what a region runs on each of its threads: a body (fn, or fnErr
// for a catch-mode region) or, for the fused `parallel for` constructs, a
// worksharing loop given by trip, sched and a per-range or per-iteration
// body — carried here, not in a wrapper closure, so those constructs fork
// without allocating. Exactly one function is set.
type work struct {
	fn    Microtask
	fnErr func(*Thread) error
	rng   func(t *Thread, lo, hi int64)
	iter  func(t *Thread, i int64)
	trip  int64
	sched Sched
}

// handshake is the four cache lines a fork and a join travel over, one
// writer each ("Hot teams and the fork fast path" in the package comment;
// layout_test.go pins the layout). Allocated on its own: only small objects
// sized in whole lines are handed out line-aligned.
type handshake struct {
	// The publish line. Idle workers spin on gen; only the goroutine owning
	// the team (a region's master, or the pool disposing it) stores to it.
	gen atomic.Uint64
	_   [CacheLine - 8]byte

	// The region descriptor: the body, then a line of shape — active size,
	// source location (what barrier and loop events are attributed to),
	// nesting depth, whether cancellation can activate (cancel-var, or an
	// error/context entry point) and whether panics are caught into
	// Team.ebox. Written by the master before the gen store (the shape
	// compare-before-store), read by the region's threads after it.
	w             work
	n             int
	loc           Ident
	level, active int32
	cancellable   bool
	catch         bool
	_             [CacheLine - 58]byte

	// The join line. done counts workers out of their regions, cumulatively;
	// only workers add to it, the master waits for it to reach Team.joinAt.
	done atomic.Uint32
	_    [CacheLine - 4]byte
}

// Team is a set of cooperating threads executing one parallel region: the
// analog of libomp's kmp_team_t. Teams are pooled ("hot teams"): workers
// spin briefly on the generation word and then park between regions instead
// of exiting. Fields are grouped by writer with a line of padding between
// groups, so no store lands on a line another thread is polling.
type Team struct {
	// The forking goroutine's own: the thread slots grown so far ([0] is the
	// master's) and the value done reaches when the current region's
	// workers have all counted out. No worker reads these.
	threads []*Thread
	joinAt  uint32
	_       pad

	*handshake

	// Stored when they change, read by everyone. spinNs is the spin budget
	// of wait.go; sizeA, locA and thrA mirror n, loc and threads — atomic
	// for the samplers (state.go) and for idle workers, which consult
	// spinNs and sizeA while the master re-arms the team. cancelRegion is
	// part of every barrier's wait predicate; cancelledLoop is the
	// worksharing sequence number of a loop cancelled by `cancel for`
	// (0 = none). dirty records which per-region state the current region
	// touched, so the next fork resets only that.
	spinNs        atomic.Int64
	sizeA         atomic.Int32
	locA          atomic.Uint32
	thrA          atomic.Pointer[[]*Thread]
	cancelRegion  atomic.Bool
	cancelledLoop atomic.Uint64
	dirty         atomic.Uint32
	_             pad

	bar barrier

	// Worksharing state shared by the team (see dispatch.go, sync.go).
	disp    [dispatchRing]dispatchBuf
	singles [dispatchRing]singleBuf
	copyPB  copyPrivateBuf

	// taskCount is the number of spawned-but-incomplete explicit tasks in
	// the team (task.go); barriers drain it to zero before releasing, and
	// their waiters poll it for tasks to run.
	taskCount atomic.Int64

	// ebox collects the first error of a catch-mode (ForkCallErr) region,
	// explicit tasks' panics included (they may run at any scheduling
	// point, the region-end drain among them). Embedded, so catch regions
	// allocate nothing per fork.
	ebox errBox
}

// Per-region state a fork has to re-initialise only if the previous region
// used it: the construct that first touches a piece marks it.
const (
	dirtyLoops   uint32 = 1 << iota // dispatch buffers (DispatchInit)
	dirtySingles                    // single/copyprivate buffers
	dirtyTasks                      // task counter, deques
)

func (tm *Team) touch(bit uint32) {
	if tm.dirty.Load()&bit == 0 {
		tm.dirty.Or(bit)
	}
}

// newThread allocates the descriptor of team thread tid.
func newThread(tm *Team, tid int) *Thread {
	th := &Thread{Gtid: nextGtid(), Tid: tid, team: tm}
	th.token = make(chan struct{}, 1)
	return th
}

// workerLoop is the body of a persistent worker goroutine driving th.
// Between regions it waits on the team's generation word (wait.go); last is
// that word at spawn time, sampled by the master before it publishes the
// worker's first region. master is the team's thread 0, handed over because
// a worker must not read tm.threads: the master appends to it while
// spawning, and may be disposing the team while a worker that just counted
// out of the join is waking it.
func (tm *Team) workerLoop(th, master *Thread, last uint64) {
	gid := goid()
	sl, _, _ := enterSlot(gid)
	sl.cur.Store(th)
	newRegion := func() bool { return tm.gen.Load() != last }
	th.setIdle(StateSpinning)
	for {
		if !th.spin(newRegion) {
			th.setIdle(StateParked)
			th.park(newRegion)
		}
		last = tm.gen.Load()
		n := int(last & genNMask)
		if n == 0 { // dispose sentinel: the pool is retiring this team
			leaveSlot(gid, sl, nil)
			return
		}
		if th.Tid >= n { // the region shrank past this worker
			th.setIdle(StateSpinning)
			continue
		}
		lid := tm.locA.Load()
		th.setRunning(lid)
		th.pushLabels(lid)
		tm.runRegion(th, &tm.w)
		th.popLabels()
		// Spinning before counting out: once the master has seen the join,
		// no sampler finds this thread still running the region.
		th.setIdle(StateSpinning)
		tm.done.Add(1)
		master.wake(th)
	}
}

// runRegion executes the region body w on th, including the region-end task
// drain: the implicit barrier at region end must also complete every
// explicit task spawned in the region (task.go) — in catch mode from the
// deferred recovery, so a panicking thread still helps (or discards) them.
// The drain comes before the thread counts out of the join, so a worker
// that has counted out does not help with tasks spawned after its drain.
func (tm *Team) runRegion(th *Thread, w *work) {
	th.enter(tm)
	switch {
	case w.fnErr != nil:
		tm.runCatch(th, w.fnErr)
		return
	case w.fn != nil:
		w.fn(th)
	default:
		th.DispatchInit(Ident{}, w.sched, w.trip)
		for lo, hi, ok := th.DispatchNext(); ok; lo, hi, ok = th.DispatchNext() {
			if w.rng != nil {
				w.rng(th, lo, hi)
				continue
			}
			for i := lo; i < hi; i++ {
				w.iter(th, i)
			}
		}
	}
	th.taskWait(func() bool { return tm.taskCount.Load() == 0 })
}

func (tm *Team) runCatch(th *Thread, fn func(*Thread) error) {
	defer func() {
		if r := recover(); r != nil {
			tm.ebox.set(fmt.Errorf("omp: panic in parallel region: %v", r))
			tm.cancel()
		}
		th.taskWait(func() bool { return tm.taskCount.Load() == 0 })
	}()
	if err := fn(th); err != nil {
		tm.ebox.set(err)
		tm.cancel()
	}
}

// publish starts the next generation, a region of n threads or (0) the
// dispose sentinel, and wakes the parked workers it concerns. The region
// descriptor must be written before the call: the gen store is the release
// edge workers synchronise on.
func (tm *Team) publish(n int) {
	c := tm.gen.Load() >> genNBits
	tm.gen.Store((c+1)<<genNBits | uint64(n))
	ths := tm.threads[1:]
	if n > 0 {
		ths = ths[:n-1]
	}
	for _, th := range ths {
		th.wake(tm.threads[0])
	}
}

// dispose retires the team: workers observe the sentinel generation,
// unregister and exit. Must only be called by a goroutine owning the team
// outside any region (the pool caps, TrimTeams).
func (tm *Team) dispose() {
	tm.publish(0)
	tm.threads = nil
	tm.thrA.Store(nil)
	tm.sizeA.Store(0)
	unregisterTeam(tm)
}

// newTeamShell allocates a team of active size n with its master slot.
func newTeamShell(n int) *Team {
	tm := &Team{handshake: new(handshake)}
	tm.n = n
	tm.sizeA.Store(int32(n))
	tm.threads = []*Thread{newThread(tm, 0)}
	return tm
}

// newTeam allocates a poolable team — workers are grown on demand (resize)
// — and registers it with the samplers. The master slot gets its own global
// thread id (rather than reusing the initial thread's 0) so concurrent
// teams' masters stay distinguishable on per-thread timeline tracks.
func newTeam() *Team {
	tm := newTeamShell(0)
	snap := []*Thread{tm.threads[0]}
	tm.thrA.Store(&snap)
	registerTeam(tm)
	return tm
}

// resize prepares the team to run a region of n threads, spawning workers
// as needed. Only the owning master calls it, between regions. A new size,
// and every procsRefresh-th region (so a changed GOMAXPROCS is noticed in
// bounded time), takes the cold path, the one that reads GOMAXPROCS.
func (tm *Team) resize(n int, p WaitPolicy) {
	if n != tm.n || (tm.gen.Load()>>genNBits)%procsRefresh == 0 {
		refreshProcs()
		if len(tm.threads) < n {
			for len(tm.threads) < n {
				th := newThread(tm, len(tm.threads))
				tm.threads = append(tm.threads, th)
				go tm.workerLoop(th, tm.threads[0], tm.gen.Load())
			}
			snap := append([]*Thread(nil), tm.threads...)
			tm.thrA.Store(&snap)
		}
		tm.sizeA.Store(int32(n))
		tm.n = n
	}
	tm.setWaitPolicy(p)
}

// reset clears per-region worksharing state so a pooled team starts clean.
// Only what the previous region touched (tm.dirty) or left behind is
// re-initialised: a plain fork pays a handful of loads and no store. The
// threads' own per-region fields are theirs to reset (Thread.enter).
func (tm *Team) reset() {
	dirty := tm.dirty.Load()
	if dirty != 0 {
		tm.dirty.Store(0)
	}
	if dirty&dirtyLoops != 0 {
		for i := range tm.disp {
			tm.disp[i].free()
		}
	}
	if dirty&dirtySingles != 0 {
		for i := range tm.singles {
			tm.singles[i].reset()
		}
		tm.copyPB.reset()
	}
	if dirty&dirtyTasks != 0 {
		tm.taskCount.Store(0)
		// Deques are empty between regions (the implicit barrier drained
		// them) but stolen slots may still reference completed closures;
		// dropping the ring releases them and any growth.
		for _, th := range tm.threads {
			th.deque.release()
		}
	}
	if tm.cancelRegion.Load() {
		tm.cancelRegion.Store(false)
		tm.bar.count.Store(0) // cancelled threads may have left mid-generation
	}
	if tm.cancelledLoop.Load() != 0 {
		tm.cancelledLoop.Store(0)
	}
	if tm.ebox.err != nil {
		tm.ebox.err = nil
	}
}

// errBox collects the first error a team reports. First writer wins, as
// errgroup does; later errors (usually cascades of the first) are dropped.
type errBox struct {
	mu  sync.Mutex
	err error
}

func (b *errBox) set(err error) {
	if err == nil {
		return
	}
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

// ForkCall runs fn on a team of nthreads threads and returns when all have
// finished (the implicit barrier at the end of a parallel region). It is the
// analog of __kmpc_fork_call: the paper's preprocessor replaces
//
//	//omp parallel
//	{ body }
//
// with an outlined function passed here. nthreads <= 0 requests the
// nthreads-var ICV (OMP_NUM_THREADS). The calling goroutine executes as team
// thread 0, exactly as the forking thread becomes the team master in libomp.
//
// Nested parallel regions — fn itself calling ForkCall — serialise to a team
// of one once the active nesting depth reaches the max-active-levels ICV
// (default 1), matching the OpenMP default of disabled nested parallelism.
// With the cap lifted (SetMaxActiveLevels), inner regions fork real teams,
// bounded collectively by thread-limit-var across the contention group.
func ForkCall(loc Ident, nthreads int, fn Microtask) {
	fork(loc, nthreads, nil, &work{fn: fn})
}

// ForkCallErr is the error- and context-aware fork behind omp.ParallelErr
// and omp.WithContext. It differs from ForkCall in three ways:
//
//   - the team is always cancellable, regardless of the cancel-var ICV;
//   - a non-nil ctx tears the team down when it is cancelled or its
//     deadline passes: region cancellation activates, every thread stops at
//     its next cancellation point, and ctx.Err() is returned;
//   - worker panics are recovered and returned as errors instead of
//     crashing the process, and the first non-nil error any team member
//     returns cancels the rest of the team.
func ForkCallErr(loc Ident, nthreads int, ctx context.Context, fn func(*Thread) error) error {
	return fork(loc, nthreads, ctx, &work{fnErr: fn})
}

// ForkCallCtx is ForkCall with a context bound (nil = none): cancellation
// of ctx tears the team down at the next cancellation point, but panics
// propagate and no error is reported — omp.Parallel+WithContext.
func ForkCallCtx(loc Ident, nthreads int, ctx context.Context, fn Microtask) {
	fork(loc, nthreads, ctx, &work{fn: fn})
}

// ForkCallLoop is the fused `parallel for`: every team thread runs its share
// of a trip-iteration worksharing loop under sched, and the region join is
// the loop's closing barrier. Exactly one of rng (called per chunk) and iter
// (called per iteration) is set. ctx may be nil.
func ForkCallLoop(loc Ident, nthreads int, ctx context.Context, sched Sched, trip int64,
	rng func(t *Thread, lo, hi int64), iter func(t *Thread, i int64)) {
	fork(loc, nthreads, ctx, &work{rng: rng, iter: iter, trip: trip, sched: sched})
}

// fork is the common fork path. The body arrives as a work value, not
// wrapped in an adapter closure, so a warm fork allocates nothing.
func fork(loc Ident, nthreads int, ctx context.Context, w *work) error {
	v := GetICV()
	n := nthreads
	if n <= 0 {
		n = v.NumThreads
	}
	n = min(max(n, 1), maxTeamSize)

	// One registry lookup per fork: the slot holds the thread this goroutine
	// already runs as (a nested fork) and the team it parked at its last join.
	gid := goid()
	sl, cur, tm := enterSlot(gid)
	level, active := int32(1), int32(0)
	if cur != nil {
		level, active = int32(cur.Level)+1, int32(cur.ActiveLevel)
	}
	if int(active)+1 > v.MaxActiveLevels {
		n = 1 // serialised region: max-active-levels-var reached
	}
	// thread-limit-var caps the contention group's total live threads: the
	// fork keeps the master and reserves the extras, shrinking to whatever
	// the group has left (hotteam.go). A region that gets nothing
	// serialises, which is the conforming minimum.
	var reserved int64
	if n > 1 && v.ThreadLimit > 0 {
		reserved = reserveThreads(int64(n-1), int64(v.ThreadLimit-1))
		n = int(reserved) + 1
	}
	catch := w.fnErr != nil
	cancellable := catch || ctx != nil || v.Cancellation

	if n == 1 {
		return forkSerial(gid, sl, cur, tm, level, active, ctx, cancellable, w)
	}

	kept := tm != nil // the goroutine's own team: its affinity claim rides along
	if !kept {
		tm = pooledTeam(gid)
	}
	tm.resize(n, v.WaitPolicy)
	tm.reset()
	// The descriptor. The shape line is compare-before-store: a fork from
	// the same callsite stays off the intern table and leaves the line
	// clean. The body line is written here and cleared at the join.
	locID := tm.locA.Load()
	if locID == 0 || tm.loc != loc {
		locID = internLoc(loc)
		tm.loc = loc
		tm.locA.Store(locID)
	}
	if tm.level != level || tm.active != active+1 {
		tm.level, tm.active = level, active+1
	}
	if tm.cancellable != cancellable || tm.catch != catch {
		tm.cancellable, tm.catch = cancellable, catch
	}
	tm.w = *w
	tm.joinAt += uint32(n - 1)

	// A region the recorder alone listens to, forked right after an
	// identical one, reopens that region's fork-end instead of reading the
	// clock (foldFork).
	master := tm.threads[0]
	g := eventGate.Load()
	var regionStart int64
	var fold uint64
	folded := false
	if g != 0 {
		if fold, folded = master.foldFork(g, loc, n); !folded {
			regionStart = TraceNow()
			master.event(g, TraceEvent{Kind: TraceForkBegin, Loc: loc, NThreads: n, When: regionStart})
		}
	}

	stopWatch, watchDone := watchContext(ctx, tm)
	joined := false
	defer func() {
		if !joined {
			// A panic is leaving the master's body. The team cannot be
			// joined: it is cancelled and retired where it stands (its
			// workers pass every barrier, count out and exit), and its
			// labels, context watcher and affinity claim go back.
			master.popLabels()
			tm.settle(ctx, stopWatch, watchDone)
			tm.cancel()
			tm.publish(0)
			unregisterTeam(tm)
			if kept {
				affinityCount.Add(-1)
			}
		}
		unreserveThreads(reserved)
		leaveSlot(gid, sl, cur)
	}()

	master.setRunning(locID)
	master.pushLabels(locID)
	tm.publish(n)

	// The caller runs as the master; its slot stacks the binding it had
	// (nested enabled: it is a thread of the outer team) for the region.
	sl.cur.Store(master)
	tm.runRegion(master, w)

	// The join: the region's closing barrier. Only the master waits at it;
	// workers count themselves out and go back to their idle wait.
	master.wait(func() bool { return tm.done.Load() == tm.joinAt })
	master.popLabels()
	master.setIdle(StateIdle)
	if folded {
		master.foldJoin(g, fold, loc, n)
	} else if g != 0 {
		master.event(g, TraceEvent{
			Kind: TraceForkEnd, Loc: loc, NThreads: n,
			When: regionStart, Dur: TraceNow() - regionStart,
		})
		if c := collectorOf(g); c != nil {
			// A region join is the natural drain point: every team thread
			// is quiesced, so the collector hands the buffered history to
			// its sink before the rings can overwrite it across regions.
			c.Flush()
		}
	}
	joined = true
	err := tm.settle(ctx, stopWatch, watchDone)
	tm.w = work{} // a parked team must not pin its caller's captures
	releaseTeam(gid, sl, tm, kept)
	return err
}

// watchContext arms the context-to-cancellation bridge: when ctx is
// cancelled, region cancellation activates. The caller must settle the
// region before recycling the team.
func watchContext(ctx context.Context, tm *Team) (func() bool, chan struct{}) {
	// The locals live inside the non-nil branch: were they named returns,
	// the closure capture would heap-allocate their cells at function entry
	// and put an allocation on the ctx-less fast path too.
	if ctx == nil {
		return nil, nil
	}
	done := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		tm.cancel()
		close(done)
	})
	return stop, done
}

// settle ends a region's error and context handling and returns its error.
// The watcher is quiesced first — stopped, or waited for if stopping lost
// the race: a late cancel() must not hit a team already running someone
// else's region.
func (tm *Team) settle(ctx context.Context, stopWatch func() bool, watchDone chan struct{}) error {
	if stopWatch != nil && !stopWatch() {
		<-watchDone
	}
	if ctx != nil && tm.cancelRegion.Load() {
		tm.ebox.set(ctx.Err())
	}
	return tm.ebox.err
}

// serialTeams pools the team-of-one shells serialised regions run on: the
// path every region takes once max-active-levels is reached, and every
// region on a single-processor host.
var serialTeams = sync.Pool{New: func() any { return newTeamShell(1) }}

// forkSerial runs the body as a team of one on the calling goroutine: the
// lowering of a serialised (nested or single-thread) parallel region —
// libomp's __kmpc_serialized_parallel — on a pooled shell. hot is the team
// fork found parked in the slot, which goes straight back: the serial region
// has no use for it, an inner fork might.
func forkSerial(gid uint64, sl *gslot, prev *Thread, hot *Team, level, active int32, ctx context.Context, cancellable bool, w *work) (err error) {
	tm := serialTeams.Get().(*Team)
	tm.reset()
	tm.level, tm.active, tm.cancellable = level, active, cancellable
	stopWatch, watchDone := watchContext(ctx, tm)
	sl.cur.Store(tm.threads[0])
	sl.hot.Store(hot)
	defer func() { // also when a panic propagates to the caller
		err = tm.settle(ctx, stopWatch, watchDone)
		serialTeams.Put(tm)
		leaveSlot(gid, sl, prev)
	}()
	tm.runRegion(tm.threads[0], w)
	return nil
}

// Barrier blocks until every thread of the team has reached it: the lowering
// of the barrier directive and of the implicit barrier after worksharing
// loops without nowait (__kmpc_barrier): a reduction without a fold.
func (t *Thread) Barrier() { t.Reduce(0, nil) }

// Reduce deposits bits, the bit pattern of t's partial, and takes the team
// barrier, whose last arriver calls fold, if not nil, over the team's
// deposits before it releases the team ("Reductions" in doc.go). A team of
// one, or a nil thread, folds inline; a cancelled region skips the fold.
func (t *Thread) Reduce(bits uint64, fold func(Partials)) {
	if t == nil || t.team == nil || t.team.n == 1 {
		if fold != nil && (t == nil || t.team == nil || !t.team.cancelRegion.Load()) {
			fold(Partials{one: bits})
		}
		return
	}
	t.red = bits
	g := eventGate.Load()
	var arrive int64
	if g != 0 {
		arrive = TraceNow()
	}
	// A barrier is a task scheduling point and a cancellation point
	// (barrier.wait): waiters run the team's ready tasks, and a region
	// cancel releases it at once — threads that already branched to the
	// region's end will never arrive, and waiting for them would deadlock.
	t.setWait(StateInBarrier)
	t.team.bar.wait(t, fold)
	t.setWait(StateRunning)
	if g != 0 {
		// Emitted at barrier exit so Dur covers the whole wait (task
		// drain included): the barrier-wait-time payload the profiler's
		// imbalance metrics aggregate.
		t.event(g, TraceEvent{Kind: TraceBarrier, Loc: t.team.loc, When: arrive, Dur: TraceNow() - arrive})
	}
}

// Master reports whether this thread should execute a master region
// (__kmpc_master): true only for team thread 0. No implied barrier.
func (t *Thread) Master() bool { return t == nil || t.Tid == 0 }
