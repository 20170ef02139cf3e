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
	// The first cache line is stored to at creation and when the thread
	// parks, never per region: wake's look at parked is a cache hit.

	// Gtid is the global thread id, unique across all live threads of the
	// process, with the initial thread at 0 — libomp's gtid.
	Gtid int
	// Tid is the thread number within the current team (0 = master);
	// omp_get_thread_num returns this.
	Tid  int
	team *Team
	// Where the thread parks when a wait outlasts its spin budget (wait.go):
	// a cap-1 token channel guarded by a Dekker-style parked flag.
	parked atomic.Uint32
	token  chan struct{}
	_      [CacheLine - 40]byte

	// Everything below is the owner's to store to.

	// Level is the nesting depth of the enclosing parallel region
	// (omp_get_level): 1 for a region forked from the initial thread.
	Level int
	// ActiveLevel is the number of enclosing *active* (more than one
	// thread) parallel regions (omp_get_active_level); the
	// max-active-levels ICV is compared against it at fork.
	ActiveLevel int
	// contended remembers that the thread's last yield took long enough for
	// another goroutine to have run (spin).
	contended bool

	regionState

	// deque is the thread's work-stealing deque of explicit tasks (task.go).
	deque taskDeque

	// loopNs is the entry timestamp of the dynamic loop the thread is in,
	// the start of its loop-fini span; 0 when the loop is not recorded.
	// Owner-only.
	loopNs int64

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

	// The thread's event ring (trace.go), which the flight recorder and a
	// collector both read. Created and resized by the owner at its events,
	// published through an atomic pointer so readers on any goroutine find
	// it.
	ring atomic.Pointer[eventRing]

	// pprof labels (labels.go): the cached label context for the current
	// region location, rebuilt only when the location changes. labelOn
	// tracks whether this thread's goroutine currently wears the labels
	// (owner-only).
	labelCtx context.Context
	labelLoc uint32
	labelOn  bool
	_        [8]byte // to whole lines, which get line-aligned (layout_test.go)
}

// regionState is what a thread keeps about the region it is in; enter
// clears it whole.
type regionState struct {
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

	// Explicit tasking (task.go): the task the thread is currently
	// executing (nil = implicit task not yet materialised) and the
	// innermost taskgroup open at this point.
	curTask  *taskNode
	curGroup *taskGroup
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

// enter readies the thread for the region its team has just published. Every
// thread resets its own, so a fork stores into no other thread's lines.
func (t *Thread) enter(tm *Team) {
	t.Level, t.ActiveLevel = int(tm.level), int(tm.active)
	t.regionState = regionState{}
}

var gtidCounter atomic.Int64 // next gtid to hand out; 0 reserved for initial thread

func nextGtid() int { return int(gtidCounter.Add(1)) }

// The thread registry: one slot per goroutine that is inside a region or
// has a hot team parked, keyed by goroutine id and sharded to keep lookups
// off a single lock. cur is the team thread the goroutine runs as (nil
// between regions; nested regions stack through it), which backs Current;
// hot is the team it parked at its last join (hotteam.go). Atomic because
// TrimTeams reads other goroutines' slots; only the owner stores non-nil.
const goidShards = 64

type gslot struct {
	cur atomic.Pointer[Thread]
	hot atomic.Pointer[Team]
	_   pad
}

type goidShard struct {
	mu sync.RWMutex
	m  map[uint64]*gslot
	_  pad
}

var goidReg [goidShards]goidShard

// slotPool recycles dropped slots: a goroutine that forks without keeping a
// team (a serialised region, affinity overflow) allocates nothing.
var slotPool = sync.Pool{New: func() any { return new(gslot) }}

func init() {
	for i := range goidReg {
		goidReg[i].m = make(map[uint64]*gslot)
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

// enterSlot is a fork's one registry operation: it returns goroutine id's
// slot (created on first use), the thread it runs as and the team parked
// there, which it takes. The pointer stays valid for the fork: TrimTeams
// drops only slots with a team parked and no thread bound.
func enterSlot(id uint64) (sl *gslot, cur *Thread, hot *Team) {
	s := &goidReg[id%goidShards]
	s.mu.RLock()
	if sl = s.m[id]; sl != nil {
		cur, hot = sl.cur.Load(), sl.hot.Swap(nil)
	}
	s.mu.RUnlock()
	if sl == nil {
		sl = slotPool.Get().(*gslot)
		s.mu.Lock()
		s.m[id] = sl
		s.mu.Unlock()
	}
	return sl, cur, hot
}

// leaveSlot restores the goroutine's previous binding when a region (or a
// worker goroutine) ends, after any team has been parked: it is the owner's
// last use of the pointer. A slot left empty is dropped, so goroutines that
// exit leave no entry; one left with only a parked team is TrimTeams's.
func leaveSlot(id uint64, sl *gslot, prev *Thread) {
	sl.cur.Store(prev)
	if prev != nil || sl.hot.Load() != nil {
		return
	}
	s := &goidReg[id%goidShards]
	s.mu.Lock()
	delete(s.m, id)
	s.mu.Unlock()
	slotPool.Put(sl)
}

// Current returns the *Thread of the calling goroutine, or nil when the
// caller is not part of any team (it is then the "initial thread" in OpenMP
// terms). This backs the implicit omp_get_thread_num-style API; generated
// code passes *Thread explicitly instead and never pays this lookup.
func Current() *Thread {
	id := goid()
	s := &goidReg[id%goidShards]
	s.mu.RLock()
	sl := s.m[id]
	s.mu.RUnlock()
	if sl == nil {
		return nil
	}
	return sl.cur.Load()
}
