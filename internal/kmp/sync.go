package kmp

import (
	"sync"
	"sync/atomic"
)

// ------------------------------------------------------------- critical

// Named critical sections share one process-wide lock per name, as the
// OpenMP standard requires (unnamed criticals all map to the same unnamed
// lock). Mirrors __kmpc_critical / __kmpc_end_critical.
var criticals struct {
	mu sync.Mutex
	m  map[string]*sync.Mutex
}

func criticalLock(name string) *sync.Mutex {
	criticals.mu.Lock()
	defer criticals.mu.Unlock()
	if criticals.m == nil {
		criticals.m = make(map[string]*sync.Mutex)
	}
	l, ok := criticals.m[name]
	if !ok {
		l = new(sync.Mutex)
		criticals.m[name] = l
	}
	return l
}

// Critical executes body under the process-wide lock for name. The empty
// name is the unnamed critical.
func Critical(name string, body func()) {
	l := criticalLock(name)
	l.Lock()
	defer l.Unlock()
	body()
}

// ----------------------------------------------------------------- locks

// Lock is the omp_lock_t analog: a plain, non-reentrant mutual-exclusion
// lock with a test-and-set TryLock (omp_test_lock).
type Lock struct {
	mu sync.Mutex
}

// LockAcquire blocks until the lock is held (omp_set_lock).
func (l *Lock) LockAcquire() { l.mu.Lock() }

// Unlock releases the lock (omp_unset_lock).
func (l *Lock) Unlock() { l.mu.Unlock() }

// TryLock attempts the lock without blocking (omp_test_lock).
func (l *Lock) TryLock() bool { return l.mu.TryLock() }

// NestLock is the omp_nest_lock_t analog: reentrant for the owning thread,
// with a hold count. Ownership is per-gtid, so it must be used from inside a
// parallel region (or any registered thread).
type NestLock struct {
	mu    sync.Mutex
	cond  *sync.Cond
	owner int // gtid of holder, -1 when free
	count int
}

// NewNestLock returns an unlocked nestable lock (omp_init_nest_lock).
func NewNestLock() *NestLock {
	l := &NestLock{owner: -1}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func callerGtid() int {
	if t := Current(); t != nil {
		return t.Gtid
	}
	return 0 // initial thread
}

// LockAcquire acquires the lock, recursively if already held by the caller
// (omp_set_nest_lock). It returns the resulting hold count.
func (l *NestLock) LockAcquire() int {
	g := callerGtid()
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.owner != -1 && l.owner != g {
		l.cond.Wait()
	}
	l.owner = g
	l.count++
	return l.count
}

// Unlock releases one hold (omp_unset_nest_lock); the lock is freed when the
// count reaches zero. Unlocking a lock not held by the caller panics, the
// moral equivalent of libomp's consistency check aborting.
func (l *NestLock) Unlock() int {
	g := callerGtid()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.owner != g || l.count == 0 {
		panic("kmp: NestLock.Unlock by non-owner")
	}
	l.count--
	if l.count == 0 {
		l.owner = -1
		l.cond.Broadcast()
	}
	return l.count
}

// TryLock attempts acquisition without blocking (omp_test_nest_lock),
// returning the new hold count, or 0 if the lock is busy elsewhere.
func (l *NestLock) TryLock() int {
	g := callerGtid()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.owner != -1 && l.owner != g {
		return 0
	}
	l.owner = g
	l.count++
	return l.count
}

// ---------------------------------------------------------------- single

// singleBuf claims one single-construct instance: the first team thread to
// CAS the instance tag executes the block. A ring indexed by the per-thread
// singleSeq, like dispatch buffers. Mirrors __kmpc_single.
type singleBuf struct {
	claimed atomic.Uint64 // instance number + 1 once claimed
	_       pad
}

func (b *singleBuf) reset() { b.claimed.Store(0) }

// Single reports whether the calling thread won the current single
// construct; exactly one team thread gets true per instance. No implied
// barrier — generated code appends Barrier() unless nowait is present.
//
// Instance tags are monotonic within a region, so a slot can be re-claimed
// for instance s+ring without waiting for a drain: the winning CAS is the
// one that advances the tag to s+1. As with libomp's bounded dispatch
// buffers, threads must not run more than dispatchRing nowait singles ahead
// of a teammate.
func (t *Thread) Single() bool {
	if t == nil || t.team == nil {
		return true
	}
	seq := t.singleSeq
	t.singleSeq++
	if t.team.n == 1 {
		return true
	}
	t.team.touch(dirtySingles)
	buf := &t.team.singles[seq%dispatchRing]
	want := uint64(seq) + 1
	for {
		cur := buf.claimed.Load()
		if cur >= want {
			return false // claimed by a teammate (or a later instance lapped us)
		}
		if buf.claimed.CompareAndSwap(cur, want) {
			return true
		}
	}
}

// copyPrivateBuf transports the single winner's value to the other team
// threads (the copyprivate clause).
type copyPrivateBuf struct {
	mu  sync.Mutex
	val any
}

func (b *copyPrivateBuf) reset() { b.val = nil }

// CopyPrivatePublish stores the single winner's value for the team.
// The caller must be the Single() winner and must call it before the
// construct's closing barrier.
func (t *Thread) CopyPrivatePublish(v any) {
	tm := t.team
	tm.touch(dirtySingles)
	tm.copyPB.mu.Lock()
	tm.copyPB.val = v
	tm.copyPB.mu.Unlock()
}

// CopyPrivateFetch returns the value published by the single winner. Callers
// must have passed the barrier separating publish from fetch.
func (t *Thread) CopyPrivateFetch() any {
	tm := t.team
	tm.copyPB.mu.Lock()
	v := tm.copyPB.val
	tm.copyPB.mu.Unlock()
	return v
}
