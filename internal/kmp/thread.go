package kmp

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// CacheLine is the assumed cache-line size used to pad per-thread slots
// against false sharing. 64 bytes covers x86-64 and most arm64 parts; the
// EPYC 7742 of the paper's testbed also uses 64-byte lines.
const CacheLine = 64

type pad [CacheLine]byte

// Thread is the per-team-member execution context: the analog of libomp's
// kmp_info_t. The paper's outlined functions receive a global thread id from
// __kmpc_fork_call; here the outlined function receives *Thread.
type Thread struct {
	// Gtid is the global thread id, unique across all live threads of the
	// process, with the initial thread at 0 — libomp's gtid.
	Gtid int
	// Tid is the thread number within the current team (0 = master);
	// omp_get_thread_num returns this.
	Tid int
	// Level is the nesting depth of the enclosing parallel region
	// (omp_get_level): 1 for a region forked from the initial thread.
	Level int
	// ActiveLevel is the number of enclosing *active* (more than one
	// thread) parallel regions (omp_get_active_level); the
	// max-active-levels ICV is compared against it at fork.
	ActiveLevel int

	team *Team

	// wt is where the thread parks when a barrier, join or idle wait
	// outlasts its spin budget (wait.go).
	wt waiter

	// Worksharing bookkeeping: sequence numbers count the worksharing and
	// single constructs this thread has entered in the current region, so
	// that every team member agrees on which shared buffer backs which
	// construct instance (libomp's th_dispatch buffer index).
	dispatchSeq uint32
	singleSeq   uint32
	curLoop     *dispatchBuf

	// wsSeq counts every worksharing loop (static or dynamic) this thread
	// has entered in the current region; curWsSeq is the instance it is in
	// (0 = none). The OpenMP same-sequence rule keeps these equal across
	// the team, which is what lets `cancel for` name its loop instance by
	// number alone (Team.cancelledLoop).
	wsSeq    uint64
	curWsSeq uint64

	// Per-loop owner-only dispatch state (dispatch.go, ordered.go):
	// chunkIdx counts the chunks this thread has claimed from the current
	// stealing loop (the trapezoidal taper index); curChunkLo/curChunkHi
	// bound the chunk an ordered loop is executing, and orderedSeen counts
	// the ordered regions completed within it.
	chunkIdx    int64
	curChunkLo  int64
	curChunkHi  int64
	orderedSeen int64

	// Explicit tasking (task.go): the thread's work-stealing deque, the
	// task it is currently executing (nil = implicit task not yet
	// materialised) and the innermost taskgroup open at this point.
	deque    taskDeque
	curTask  *taskNode
	curGroup *taskGroup

	// Tracing (trace.go): this thread's event ring in the installed
	// collector, plus the collector it belongs to (a cache key — a newly
	// installed collector gets a fresh ring), and the entry timestamp of
	// the dynamic loop the thread is in (for the loop-fini span). All
	// owner-only.
	trcRing  *traceRing
	trcOwner *Collector
	loopNs   int64

	// Live-state word (state.go): a WorkerState plus a transition
	// sequence in the low 32 bits and the interned id of the current
	// region's location in the high 32. Written with single atomic
	// stores by the owning thread on its fork/barrier/steal/park
	// transitions; read by status samplers and the hang watchdog
	// without stopping the world. stateLoc caches the location id for
	// the same-region transitions, stateSeq the owner-only transition
	// counter (both owner-only plain fields).
	state    atomic.Uint64
	stateLoc uint32
	stateSeq uint32

	// Flight recorder (flight.go): the thread's always-on ring of its
	// most recent events. Created lazily by the owner on first record,
	// published through an atomic pointer so dump samplers can read it
	// from any goroutine.
	flight atomic.Pointer[flightRing]

	// pprof labels (labels.go): the cached label context for the current
	// region location, rebuilt only when the location changes. labelOn
	// tracks whether this thread's goroutine currently wears the labels
	// (owner-only).
	labelCtx context.Context
	labelLoc uint32
	labelOn  bool
	_        pad
}

// Team returns the team this thread belongs to.
func (t *Thread) Team() *Team { return t.team }

// NumThreads returns the size of the thread's team (omp_get_num_threads).
func (t *Thread) NumThreads() int {
	if t == nil || t.team == nil {
		return 1
	}
	return t.team.n
}

// InParallel reports whether the thread is executing inside an active
// parallel region of more than one thread.
func (t *Thread) InParallel() bool { return t != nil && t.team != nil && t.team.n > 1 }

var gtidCounter atomic.Int64 // next gtid to hand out; 0 reserved for initial thread

func nextGtid() int { return int(gtidCounter.Add(1)) }

// goroutine-id → *Thread registry. Worker goroutines register once at spawn,
// so the per-call cost of the implicit API (Current) is one map read; the
// goid parse happens on every call, which is why generated code prefers the
// explicit *Thread. Sharded to keep heavily-threaded lookups off a single
// lock.
const goidShards = 64

type goidShard struct {
	mu sync.RWMutex
	m  map[uint64]*Thread
	_  pad
}

var goidReg [goidShards]goidShard

func init() {
	for i := range goidReg {
		goidReg[i].m = make(map[uint64]*Thread)
	}
}

// goidParse extracts the current goroutine's id from the runtime stack
// header ("goroutine 123 [running]:"). There is no supported API for this;
// the parse is confined to registration, the implicit-lookup fallback and
// validation of the fast path (goid_fast.go), which replaces it on
// amd64/arm64 — a runtime.Stack traceback costs microseconds, which would
// dominate a warm fork.
//
// goidParse can sit on the zero-allocation fork fast path (as goid() on
// architectures without the assembly getg), which dictates two details: the
// scratch buffer is pooled, because runtime.Stack parks its argument in the
// g's write buffer and thereby forces it to escape; and the digits are
// decoded by hand, because strconv.ParseUint would force a heap-escaping
// []byte→string conversion (its error path retains the input).
var goidBufs = sync.Pool{New: func() any { return new([64]byte) }}

func goidParse() uint64 {
	p := goidBufs.Get().(*[64]byte)
	n := runtime.Stack(p[:], false)
	b := p[:n]
	const prefix = len("goroutine ")
	var id uint64
	for i := prefix; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		id = id*10 + uint64(b[i]-'0')
	}
	goidBufs.Put(p)
	return id
}

// registerThread binds goroutine id to t and returns the previous binding,
// so nested regions (the master goroutine is already a worker of the outer
// team) can be stacked and unwound. The caller supplies the id so the fork
// path parses the stack header exactly once.
func registerThread(id uint64, t *Thread) *Thread {
	s := &goidReg[id%goidShards]
	s.mu.Lock()
	prev := s.m[id]
	s.m[id] = t
	s.mu.Unlock()
	return prev
}

// registerCurrent binds the calling goroutine to t; see registerThread.
func registerCurrent(t *Thread) (uint64, *Thread) {
	id := goid()
	return id, registerThread(id, t)
}

// unregister restores the previous binding of goroutine id (nil removes it).
func unregister(id uint64, prev *Thread) {
	s := &goidReg[id%goidShards]
	s.mu.Lock()
	if prev == nil {
		delete(s.m, id)
	} else {
		s.m[id] = prev
	}
	s.mu.Unlock()
}

// lookupThread returns the *Thread bound to goroutine id, or nil.
func lookupThread(id uint64) *Thread {
	s := &goidReg[id%goidShards]
	s.mu.RLock()
	t := s.m[id]
	s.mu.RUnlock()
	return t
}

// Current returns the *Thread of the calling goroutine, or nil when the
// caller is not part of any team (it is then the "initial thread" in OpenMP
// terms). This backs the implicit omp_get_thread_num-style API; generated
// code passes *Thread explicitly instead and never pays this lookup.
func Current() *Thread { return lookupThread(goid()) }
