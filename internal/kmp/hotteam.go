package kmp

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Hot-team pooling: where parallel regions get their teams from. Two tiers
// (see "Hot teams and the fork fast path" in the package comment): the
// forking goroutine's registry slot (thread.go), and behind it a global free
// list for first-time forkers and overflow, sharded so concurrent root forks
// do not convoy on one mutex. Both tiers are capped: a burst of ten thousand
// concurrent regions must not permanently pin ten thousand teams of parked
// workers. Overflow teams are disposed — their workers observe the dispose
// generation, drop their registry slots and exit.

const poolShards = 8

var (
	// affinityCount is the number of goroutine slots holding a team, parked
	// or out running that goroutine's region: the claim is kept across
	// forks, so the warm path never touches the counter.
	affinityCount atomic.Int64

	hotPool [poolShards]struct {
		mu   sync.Mutex
		free []*Team
		_    pad
	}
	hotPoolCount atomic.Int64

	// procs caches GOMAXPROCS, which takes the scheduler's global lock to
	// read. Refreshed on cold paths only: a team taking a new shape, every
	// procsRefresh-th region of a team, TrimTeams.
	procs atomic.Int64
)

const procsRefresh = 1024

func init() { refreshProcs() }

func refreshProcs() { procs.Store(int64(runtime.GOMAXPROCS(0))) }

// affinityCap bounds the number of teams held by goroutine slots.
// Goroutines die silently in Go, so a slot whose owner exited can only be
// reclaimed by TrimTeams or by capping admission; the cap keeps the worst
// case (many short-lived forking goroutines) at a bounded goroutine count.
func affinityCap() int64 { return max(procs.Load()*8, 32) }

func hotPoolCap() int64 { return max(procs.Load()*2, 8) }

// reserveSlot claims one unit of a capped counter, false when full. The
// CAS loop makes the cap hard: a flood of concurrent releases cannot
// overshoot it the way a load-then-add check could.
func reserveSlot(ctr *atomic.Int64, cap int64) bool {
	for {
		cur := ctr.Load()
		if cur >= cap {
			return false
		}
		if ctr.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// pooledTeam returns a team for a goroutine whose slot had none parked: a
// pooled team, else a fresh shell.
func pooledTeam(gid uint64) *Team {
	home := int(gid % poolShards)
	for i := 0; i < poolShards; i++ {
		s := &hotPool[(home+i)%poolShards]
		s.mu.Lock()
		if n := len(s.free); n > 0 {
			tm := s.free[n-1]
			s.free[n-1] = nil
			s.free = s.free[:n-1]
			s.mu.Unlock()
			hotPoolCount.Add(-1)
			return tm
		}
		s.mu.Unlock()
	}
	return newTeam()
}

// releaseTeam parks tm for reuse: the goroutine's slot first, a shared shard
// second, dispose on overflow. kept says tm came out of this slot, whose
// affinity claim it still holds (the slot is then only occupied if a nested
// region parked its own team there meanwhile).
func releaseTeam(gid uint64, sl *gslot, tm *Team, kept bool) {
	if sl.hot.Load() == nil && (kept || reserveSlot(&affinityCount, affinityCap())) {
		sl.hot.Store(tm)
		return
	}
	if kept {
		affinityCount.Add(-1)
	}
	if !reserveSlot(&hotPoolCount, hotPoolCap()) {
		tm.dispose()
		return
	}
	s := &hotPool[gid%poolShards]
	s.mu.Lock()
	s.free = append(s.free, tm)
	s.mu.Unlock()
}

// TrimTeams drains both pooling tiers, disposing every parked team: their
// worker goroutines unregister and exit, and the memory becomes collectable.
// Useful for servers scaling down after a burst and for tests that assert on
// goroutine counts. Regions in flight are unaffected — their teams are not
// in any pool. A slot that held only a team (goroutine idle, or gone) goes.
func TrimTeams() {
	refreshProcs()
	for i := range goidReg {
		s := &goidReg[i]
		s.mu.Lock()
		for gid, sl := range s.m {
			if tm := sl.hot.Load(); tm != nil {
				sl.hot.Store(nil)
				affinityCount.Add(-1)
				tm.dispose()
				if sl.cur.Load() == nil {
					delete(s.m, gid)
				}
			}
		}
		s.mu.Unlock()
	}
	for i := range hotPool {
		s := &hotPool[i]
		s.mu.Lock()
		free := s.free
		s.free = nil
		s.mu.Unlock()
		for _, tm := range free {
			hotPoolCount.Add(-1)
			tm.dispose()
		}
	}
}

// Contention-group thread accounting: thread-limit-var caps the *total*
// number of threads alive across all active regions of the contention group
// (OpenMP 5.2 §2.4), not just one team's size. liveExtra counts non-master
// threads currently granted to active regions; a fork reserves up to its
// request and shrinks to what it got, which is what lets nested
// non-serialised regions share the limit honestly.
var liveExtra atomic.Int64

// reserveThreads grants up to want extra threads under limit, returning the
// grant (possibly 0).
func reserveThreads(want, limit int64) int64 {
	for {
		cur := liveExtra.Load()
		grant := min(want, limit-cur)
		if grant <= 0 {
			return 0
		}
		if liveExtra.CompareAndSwap(cur, cur+grant) {
			return grant
		}
	}
}

func unreserveThreads(n int64) {
	if n > 0 {
		liveExtra.Add(-n)
	}
}
