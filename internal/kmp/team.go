package kmp

import (
	"context"
	"fmt"
	rtrace "runtime/trace"
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

// Region publication: the master hands a region to its workers through one
// atomic generation word instead of a channel send per worker. The word
// packs a monotonically increasing counter in the high bits and the region's
// team size in the low genNBits, so a worker learns "there is a new region"
// and "am I in it" from a single load — a worker whose Tid is outside the
// active size must not touch any other team field, since the master only
// joins on participating workers and may already be preparing the next
// region. Size 0 is the dispose sentinel: workers unregister and exit.
const (
	genNBits    = 16
	genNMask    = 1<<genNBits - 1
	maxTeamSize = genNMask
)

// Team is a set of cooperating threads executing one parallel region: the
// analog of libomp's kmp_team_t. Teams are pooled ("hot teams"): workers
// spin briefly on the generation word and then park between regions instead
// of exiting, so a warm fork is a few atomic stores and (for parked workers)
// one channel token — no allocation, no global lock.
type Team struct {
	n       int       // active size for the current region
	threads []*Thread // len == capacity grown so far; [0] is the master slot
	bar     barrier
	// spinNs is the spin budget wait-policy-var grants the current region's
	// waits and crowded whether its team is larger than GOMAXPROCS
	// (wait.go); both atomic because idle workers consult them while the
	// master re-arms the team.
	spinNs  atomic.Int64
	crowded atomic.Bool

	// gen is the region-publication word (see genNBits above). Written only
	// by the goroutine that owns the team (the master of the region being
	// started, or the pool disposing it); read by workers.
	gen atomic.Uint64

	// The outlined body of the current region, installed by forkCall before
	// the gen publish. Exactly one of fnV/fnE is set: fnV for plain regions
	// (ForkCall/ForkCallCtx), fnE when catch is set (ForkCallErr). Keeping
	// both avoids wrapping the user's Microtask in a fresh closure per fork.
	fnV   Microtask
	fnE   func(*Thread) error
	catch bool

	// Worksharing state shared by the team (see dispatch.go, sync.go).
	disp    [dispatchRing]dispatchBuf
	singles [dispatchRing]singleBuf
	copyPB  copyPrivateBuf

	// taskCount is the number of spawned-but-incomplete explicit tasks in
	// the team (task.go); barriers drain it to zero before releasing.
	taskCount atomic.Int64

	// prioQ holds ready tasks carrying a priority clause; every dequeue
	// drains it before the work-stealing deques (taskdep.go).
	prioQ taskPrioQ

	// Withheld dependent tasks (depcycle.go): every spawned task with
	// depend items whose predecessor count has not drained, the set the
	// hang watchdog's dependence-cycle detector walks. The size gauge
	// keeps dependence-free paths off the mutex.
	withheldMu sync.Mutex
	withheld   map[*taskNode]struct{}
	withheldN  atomic.Int32

	// Cancellation state (cancel.go). cancellable is decided at fork: the
	// cancel-var ICV is set, or the region was launched through the
	// error/context entry point. cancelRegion is part of every barrier's
	// wait predicate. cancelledLoop holds the worksharing sequence number
	// of a loop instance cancelled by `cancel for` (0 = none).
	cancellable   bool
	cancelRegion  atomic.Bool
	cancelledLoop atomic.Uint64

	// eb is the error collector of a catch-mode (ForkCallErr) region, nil
	// otherwise. Task execution consults it so a panic inside an explicit
	// task — which may run at any scheduling point, including the
	// region-end drain — converts to the team's error instead of killing
	// the process. It points at the team-embedded ebox so catch regions
	// allocate nothing per fork.
	eb   *errBox
	ebox errBox

	// loc is the source location of the region being executed, so
	// barrier events can be attributed to their region by the profiler.
	loc Ident

	// Sampler-visible mirrors (state.go): the active size, the interned
	// id of loc, and a copy-on-write snapshot of the threads slice, all
	// written by the owning master so ReadStatus can walk the team
	// without racing resize. lastLoc/lastLocID cache the intern lookup —
	// a warm fork from the same callsite pays one struct compare.
	sizeA     atomic.Int32
	locA      atomic.Uint32
	thrA      atomic.Pointer[[]*Thread]
	lastLoc   Ident
	lastLocID uint32

	// pending counts the workers still inside the current region: the join
	// (the implicit barrier at region end) is the master waiting for zero.
	pending atomic.Int32

	// dirty records which pieces of per-region state the current region
	// touched (dirty* bits), so the next fork resets only those.
	dirty atomic.Uint32

	// reserved is the contention-group thread grant held for the current
	// region (hotteam.go), returned at join.
	reserved int64

	serial bool // team of 1 created for a serialised nested region
}

// NumThreads returns the team's active size.
func (tm *Team) NumThreads() int { return tm.n }

// Per-region state a fork has to re-initialise only if the previous region
// used it: the construct that first touches a piece marks it.
const (
	dirtyLoops   uint32 = 1 << iota // dispatch buffers (DispatchInit)
	dirtySingles                    // single/copyprivate buffers
	dirtyTasks                      // task counters, priority queue, withheld set, deques
)

func (tm *Team) touch(bit uint32) {
	if tm.dirty.Load()&bit == 0 {
		tm.dirty.Or(bit)
	}
}

// newThread allocates the descriptor of team thread tid.
func newThread(tm *Team, tid int) *Thread {
	th := &Thread{Gtid: nextGtid(), Tid: tid, team: tm}
	th.wt.token = make(chan struct{}, 1)
	return th
}

// workerLoop is the body of a persistent worker goroutine driving th.
// Between regions it waits on the team's generation word (wait.go), which
// the master publishes and then tops up with a token for whoever parked.
// last is the generation word at spawn time, sampled by the master before
// publishing the worker's first region. master is the team's thread 0,
// handed over because a worker must not read tm.threads: the master appends
// to it while spawning, and may be disposing the team by the time a worker
// that just counted itself out of the join gets to wake it.
func (tm *Team) workerLoop(th, master *Thread, last uint64) {
	gid, _ := registerCurrent(th)
	newRegion := func() bool { return tm.gen.Load() != last }
	for {
		th.setIdle(StateSpinning)
		if !th.spin(newRegion) {
			th.setIdle(StateParked)
			th.park(newRegion)
		}
		last = tm.gen.Load()
		n := int(last & genNMask)
		if n == 0 { // dispose sentinel: the pool is retiring this team
			unregister(gid, nil)
			return
		}
		if th.Tid < n {
			lid := tm.locA.Load()
			th.setRunning(lid)
			th.pushLabels(lid)
			tm.runRegion(th)
			th.popLabels()
			th.setIdle(StateIdle)
			if tm.pending.Add(-1) == 0 {
				master.wake()
			}
		}
	}
}

// runRegion executes the published region body on th, including the
// region-end task drain: the implicit barrier at region end must also
// complete every explicit task spawned in the region (task.go). In catch
// mode the drain moves into the deferred recovery so a panicking thread
// still helps (or discards) outstanding tasks before leaving.
func (tm *Team) runRegion(th *Thread) {
	if tm.catch {
		defer func() {
			if r := recover(); r != nil {
				tm.ebox.set(fmt.Errorf("omp: panic in parallel region: %v", r))
				tm.cancel()
			}
			th.taskDrain()
		}()
		if err := tm.fnE(th); err != nil {
			tm.ebox.set(err)
			tm.cancel()
		}
		return
	}
	tm.fnV(th)
	th.taskDrain()
}

// publish starts the next region generation and wakes its parked workers.
// All region state (body, loc, thread levels, join count) must be written
// before the call: the gen store is the release edge workers synchronise on.
func (tm *Team) publish(n int) {
	c := tm.gen.Load() >> genNBits
	tm.gen.Store((c+1)<<genNBits | uint64(n))
	for _, th := range tm.threads[1:n] {
		th.wake()
	}
}

// dispose retires the team: workers observe the sentinel generation,
// unregister and exit. Must only be called by a goroutine owning the team
// outside any region (the pool caps, TrimTeams).
func (tm *Team) dispose() {
	c := tm.gen.Load() >> genNBits
	tm.gen.Store((c + 1) << genNBits)
	for _, th := range tm.threads[1:] {
		th.wake()
	}
	tm.threads = nil
	tm.thrA.Store(nil)
	tm.sizeA.Store(0)
	unregisterTeam(tm)
}

// newTeam allocates a team shell; threads/workers are grown on demand.
// The master slot gets its own global thread id (rather than reusing the
// initial thread's 0) so concurrent teams' masters stay distinguishable
// on per-thread timeline tracks.
func newTeam(v ICV) *Team {
	tm := &Team{}
	master := newThread(tm, 0)
	tm.threads = []*Thread{master}
	for i := range tm.disp {
		tm.disp[i].init()
	}
	snap := []*Thread{master}
	tm.thrA.Store(&snap)
	registerTeam(tm)
	return tm
}

// resize prepares the team to run a region of n threads, spawning workers
// as needed. Only the owning master calls it, between regions.
func (tm *Team) resize(n int, v ICV) {
	tm.setWaitPolicy(v.WaitPolicy, n)
	grew := false
	for len(tm.threads) < n {
		th := newThread(tm, len(tm.threads))
		tm.threads = append(tm.threads, th)
		go tm.workerLoop(th, tm.threads[0], tm.gen.Load())
		grew = true
	}
	if grew {
		snap := append([]*Thread(nil), tm.threads...)
		tm.thrA.Store(&snap)
	}
	tm.sizeA.Store(int32(n))
	tm.n = n
}

// reset clears per-region worksharing state so a pooled team starts clean.
// Only what the previous region touched (tm.dirty) or left behind is
// re-initialised: a plain fork pays a handful of loads and the per-thread
// plain stores, not ~40 atomic stores for constructs it never used.
func (tm *Team) reset() {
	dirty := tm.dirty.Load()
	if dirty != 0 {
		tm.dirty.Store(0)
	}
	if dirty&dirtyLoops != 0 {
		for i := range tm.disp {
			tm.disp[i].init()
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
		tm.prioQ.reset()
		tm.resetWithheld()
	}
	tm.cancellable = false
	if tm.cancelRegion.Load() {
		tm.cancelRegion.Store(false)
		tm.bar.count.Store(0) // cancelled threads may have left mid-generation
	}
	if tm.cancelledLoop.Load() != 0 {
		tm.cancelledLoop.Store(0)
	}
	tm.eb = nil
	tm.ebox.err = nil
	for _, th := range tm.threads {
		th.dispatchSeq = 0
		th.singleSeq = 0
		th.wsSeq = 0
		th.curWsSeq = 0
		th.curLoop = nil
		th.chunkIdx = 0
		th.curChunkLo, th.curChunkHi, th.orderedSeen = 0, 0, 0
		th.curTask = nil
		th.curGroup = nil
		if dirty&dirtyTasks != 0 {
			// Deques are empty between regions (the implicit barrier
			// drained them) but stolen slots may still reference
			// completed closures; dropping the ring releases them and
			// any growth.
			th.deque.release()
		}
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
	forkCall(loc, nthreads, nil, false, fn, nil)
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
//
// The serialised-region and hot-team mechanics are shared with ForkCall.
func ForkCallErr(loc Ident, nthreads int, ctx context.Context, fn func(*Thread) error) error {
	return forkCall(loc, nthreads, ctx, true, nil, fn)
}

// ForkCallCtx is ForkCall with a context bound: ctx cancellation tears the
// team down at the next cancellation point, but panics propagate and no
// error is reported — the void-construct variant of ForkCallErr, backing
// omp.Parallel+WithContext.
func ForkCallCtx(loc Ident, nthreads int, ctx context.Context, fn Microtask) {
	forkCall(loc, nthreads, ctx, false, fn, nil)
}

// forkCall is the common fork path. Exactly one of fnV/fnE is non-nil:
// fnE when catch is set. Keeping the two shapes separate (instead of
// wrapping fnV in an adapter closure) is what lets a warm fork run without
// allocating.
func forkCall(loc Ident, nthreads int, ctx context.Context, catch bool, fnV Microtask, fnE func(*Thread) error) error {
	v := GetICV()
	n := nthreads
	if n <= 0 {
		n = v.NumThreads
	}
	if n < 1 {
		n = 1
	}
	if n > maxTeamSize {
		n = maxTeamSize
	}

	// One stack-header parse per fork: the gid keys the current-thread
	// lookup, the master registration and the team-affinity cache.
	gid := goid()
	cur := lookupThread(gid)
	level := 1
	curActive := 0
	if cur != nil {
		level = cur.Level + 1
		curActive = cur.ActiveLevel
	}
	if curActive+1 > v.MaxActiveLevels {
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
	cancellable := catch || ctx != nil || v.Cancellation

	if n == 1 {
		return forkSerial(gid, level, curActive, ctx, catch, cancellable, fnV, fnE)
	}

	tm := acquireTeam(gid, v)
	tm.resize(n, v)
	tm.reset()
	tm.loc = loc
	// Publish the region location for state words and status samplers.
	// The per-team cache keeps the warm same-callsite fork off the
	// intern table entirely (one struct compare).
	locID := tm.lastLocID
	if locID == 0 || tm.lastLoc != loc {
		locID = internLoc(loc)
		tm.lastLoc, tm.lastLocID = loc, locID
	}
	tm.locA.Store(locID)
	tm.cancellable = cancellable
	tm.catch = catch
	tm.fnV, tm.fnE = fnV, fnE
	tm.reserved = reserved
	if catch {
		tm.eb = &tm.ebox
	}
	for _, th := range tm.threads[:n] {
		th.Level = level
		th.ActiveLevel = curActive + 1
	}

	master := tm.threads[0]
	col, rec := traceSinks()
	var regionStart int64
	if rec {
		regionStart = TraceNow()
		master.record(col, TraceEvent{Kind: TraceForkBegin, Loc: loc, NThreads: n, When: regionStart})
		if col != nil && col.BridgeGoTrace && rtrace.IsEnabled() {
			defer rtrace.StartRegion(context.Background(), "omp:"+loc.String()).End()
		}
	}

	stopWatch, watchDone := watchContext(ctx, tm)

	tm.pending.Store(int32(n - 1))
	master.setRunning(locID)
	master.pushLabels(locID)
	tm.publish(n)

	// The caller runs as the master. Its goroutine may already be
	// registered (nested enabled); stack the registration for the region.
	prev := registerThread(gid, master)
	tm.runRegion(master)
	unregister(gid, prev)

	// The join: the region's closing barrier, which only the master waits
	// at — workers count themselves out and go back to their idle wait.
	master.wait(func() bool { return tm.pending.Load() == 0 })
	master.popLabels()
	master.setIdle(StateIdle)
	if rec {
		end := TraceNow()
		master.record(col, TraceEvent{
			Kind: TraceForkEnd, Loc: loc, NThreads: n,
			When: regionStart, Dur: end - regionStart,
		})
		if col != nil {
			// A region join is the natural drain point: every team thread
			// is quiesced, so the collector hands the buffered history to
			// its sink before the rings can overflow across regions.
			col.Flush()
		}
	}
	// Quiesce the context watcher before the team returns to the pool: a
	// late cancel() must not hit a team already running someone else's
	// region.
	if stopWatch != nil && !stopWatch() {
		<-watchDone
	}
	if ctx != nil && tm.cancelRegion.Load() {
		tm.ebox.set(ctx.Err())
	}
	err := tm.ebox.err
	// Drop the body references before pooling: a parked team must not keep
	// the caller's captures alive.
	tm.fnV, tm.fnE = nil, nil
	unreserveThreads(tm.reserved)
	tm.reserved = 0
	releaseTeam(gid, tm)
	return err
}

// watchContext arms the context-to-cancellation bridge: when ctx is
// cancelled, region cancellation activates. The caller must stop the
// returned watcher (and, if stopping lost the race, wait on done) before
// recycling the team.
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

// serialTeams pools the team-of-one shells serialised regions run on: the
// path every region takes once max-active-levels is reached, and every
// region on a single-processor host. Before pooling, each such region paid
// a fresh Team, Thread, barrier and dispatch-ring setup — the dominant cost
// of a serialised fork.
var serialTeams = sync.Pool{New: func() any { return newSerialTeam() }}

func newSerialTeam() *Team {
	tm := &Team{n: 1, serial: true}
	tm.threads = []*Thread{newThread(tm, 0)}
	for i := range tm.disp {
		tm.disp[i].init()
	}
	return tm
}

// forkSerial runs the body as a team of one on the calling goroutine: the
// lowering of a serialised (nested or single-thread) parallel region —
// libomp's __kmpc_serialized_parallel — on a pooled shell.
func forkSerial(gid uint64, level, curActive int, ctx context.Context, catch, cancellable bool, fnV Microtask, fnE func(*Thread) error) (err error) {
	tm := serialTeams.Get().(*Team)
	tm.reset()
	tm.cancellable = cancellable
	th := tm.threads[0]
	th.Level = level
	th.ActiveLevel = curActive
	stopWatch, watchDone := watchContext(ctx, tm)
	prev := registerThread(gid, th)
	defer func() {
		unregister(gid, prev)
		if catch {
			if r := recover(); r != nil {
				err = fmt.Errorf("omp: panic in parallel region: %v", r)
			}
		}
		if stopWatch != nil && !stopWatch() {
			<-watchDone
		}
		if err == nil && ctx != nil && tm.cancelRegion.Load() {
			err = ctx.Err()
		}
		serialTeams.Put(tm)
	}()
	if catch {
		return fnE(th)
	}
	fnV(th)
	return nil
}

// Barrier blocks until every thread of the team has reached it: the lowering
// of the barrier directive and of the implicit barrier after worksharing
// loops without nowait (__kmpc_barrier).
func (t *Thread) Barrier() {
	if t == nil || t.team == nil || t.team.n == 1 {
		return
	}
	col, rec := traceSinks()
	var arrive int64
	if rec {
		arrive = TraceNow()
	}
	// A barrier is a task scheduling point: instead of spinning, arriving
	// threads execute outstanding explicit tasks (their own, then stolen)
	// until the team's task pool is dry. A thread that enters Wait only
	// after seeing zero may still be overtaken by a task spawning more
	// tasks, but the spawning thread drains those before arriving itself,
	// so all tasks created before the barrier complete before release.
	t.taskDrain()
	// A barrier is also a cancellation point: a region cancel releases it
	// immediately — threads that already branched to the region's end will
	// never arrive, and waiting for them would deadlock.
	t.setWait(StateInBarrier)
	t.team.bar.wait(t)
	t.setWait(StateRunning)
	if rec {
		// Emitted at barrier exit so Dur covers the whole wait (task
		// drain included): the barrier-wait-time payload the profiler's
		// imbalance metrics aggregate.
		t.record(col, TraceEvent{Kind: TraceBarrier, Loc: t.team.loc, When: arrive, Dur: TraceNow() - arrive})
	}
}

// Master reports whether this thread should execute a master region
// (__kmpc_master): true only for team thread 0. No implied barrier.
func (t *Thread) Master() bool { return t == nil || t.Tid == 0 }
