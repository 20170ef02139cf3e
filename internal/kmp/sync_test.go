package kmp

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestCriticalMutualExclusion(t *testing.T) {
	var inside, maxInside atomic.Int32
	var counter int // protected by the critical
	ForkCall(Ident{}, 8, func(th *Thread) {
		for i := 0; i < 200; i++ {
			Critical("", func() {
				if in := inside.Add(1); in > maxInside.Load() {
					maxInside.Store(in)
				}
				counter++
				inside.Add(-1)
			})
		}
	})
	if maxInside.Load() != 1 {
		t.Fatalf("critical admitted %d threads at once", maxInside.Load())
	}
	if counter != 8*200 {
		t.Fatalf("critical-protected counter = %d, want %d", counter, 8*200)
	}
}

func TestNamedCriticalsAreIndependent(t *testing.T) {
	// Two differently-named criticals must be able to interleave: thread A
	// holds "x" while thread B holds "y". We can't easily prove
	// concurrency, but we can prove same-name exclusion and that distinct
	// names use distinct locks.
	if criticalLock("alpha") == criticalLock("beta") {
		t.Fatal("criticals \"alpha\" and \"beta\" share a lock")
	}
	if criticalLock("alpha") != criticalLock("alpha") {
		t.Fatal("critical \"alpha\" lock not stable across calls")
	}
}

func TestLock(t *testing.T) {
	var l Lock
	l.LockAcquire()
	if l.TryLock() {
		t.Fatal("TryLock succeeded on held lock")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock failed on free lock")
	}
	l.Unlock()
}

func TestNestLockReentrancy(t *testing.T) {
	l := NewNestLock()
	if got := l.LockAcquire(); got != 1 {
		t.Fatalf("first acquire count = %d, want 1", got)
	}
	if got := l.LockAcquire(); got != 2 {
		t.Fatalf("second acquire count = %d, want 2", got)
	}
	if got := l.TryLock(); got != 3 {
		t.Fatalf("TryLock by owner = %d, want 3", got)
	}
	if got := l.Unlock(); got != 2 {
		t.Fatalf("unlock count = %d, want 2", got)
	}
	l.Unlock()
	l.Unlock()
}

func TestNestLockBlocksOtherThreads(t *testing.T) {
	l := NewNestLock()
	var order []string
	var mu sync.Mutex
	log := func(s string) { mu.Lock(); order = append(order, s); mu.Unlock() }
	ForkCall(Ident{}, 2, func(th *Thread) {
		if th.Tid == 0 {
			l.LockAcquire()
			log("t0-acquired")
			th.Barrier() // let t1 attempt while held
			th.Barrier() // and hold until it has
			log("t0-release")
			l.Unlock()
		} else {
			th.Barrier()
			if l.TryLock() != 0 {
				t.Error("TryLock from non-owner succeeded while held")
			}
			th.Barrier()
			l.LockAcquire() // must block until t0 releases
			log("t1-acquired")
			l.Unlock()
		}
	})
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[2] != "t1-acquired" {
		t.Fatalf("acquisition order %v, want t1-acquired last", order)
	}
}

func TestNestLockUnlockByNonOwnerPanics(t *testing.T) {
	l := NewNestLock()
	defer func() {
		if recover() == nil {
			t.Fatal("Unlock of unheld NestLock did not panic")
		}
	}()
	l.Unlock()
}

func TestSingleExactlyOne(t *testing.T) {
	const n, repeats = 6, 30
	winners := make([]atomic.Int32, repeats)
	ForkCall(Ident{}, n, func(th *Thread) {
		for r := 0; r < repeats; r++ {
			if th.Single() {
				winners[r].Add(1)
			}
			th.Barrier() // separates single instances
		}
	})
	for r := range winners {
		if got := winners[r].Load(); got != 1 {
			t.Fatalf("single instance %d had %d winners, want 1", r, got)
		}
	}
}

func TestSingleTeamOfOne(t *testing.T) {
	ForkCall(Ident{}, 1, func(th *Thread) {
		for i := 0; i < 5; i++ {
			if !th.Single() {
				t.Error("Single() false in a team of one")
			}
		}
	})
}

func TestCopyPrivate(t *testing.T) {
	const n = 4
	got := make([]int, n)
	ForkCall(Ident{}, n, func(th *Thread) {
		if th.Single() {
			th.CopyPrivatePublish(42)
		}
		th.Barrier()
		got[th.Tid] = th.CopyPrivateFetch().(int)
	})
	for tid, v := range got {
		if v != 42 {
			t.Fatalf("tid %d fetched %d, want 42", tid, v)
		}
	}
}

func TestThreadPrivatePersistsAcrossRegions(t *testing.T) {
	tp := NewThreadPrivate[int](nil)
	gtids := make(map[int]*int)
	var mu sync.Mutex
	ForkCall(Ident{}, 4, func(th *Thread) {
		p := tp.Get(th)
		*p = th.Gtid * 100
		mu.Lock()
		gtids[th.Gtid] = p
		mu.Unlock()
	})
	// Hot team reuse gives the same gtids on refork; instances must persist.
	ForkCall(Ident{}, 4, func(th *Thread) {
		p := tp.Get(th)
		mu.Lock()
		prev, ok := gtids[th.Gtid]
		mu.Unlock()
		if ok && (p != prev || *p != th.Gtid*100) {
			t.Errorf("gtid %d: threadprivate did not persist (got %v=%d)", th.Gtid, p, *p)
		}
	})
}

func TestThreadPrivateDistinctPerThread(t *testing.T) {
	tp := NewThreadPrivate(func() *int { v := 7; return &v })
	var ptrs sync.Map
	ForkCall(Ident{}, 6, func(th *Thread) {
		p := tp.Get(th)
		if *p != 7 {
			t.Errorf("initialiser not applied: %d", *p)
		}
		if _, loaded := ptrs.LoadOrStore(p, th.Gtid); loaded {
			t.Errorf("two threads share a threadprivate instance")
		}
	})
}

func TestThreadPrivateInitialThread(t *testing.T) {
	tp := NewThreadPrivate[int](nil)
	p := tp.Get(nil)
	*p = 5
	if q := tp.Get(nil); q != p || *q != 5 {
		t.Fatal("initial-thread slot not stable")
	}
	tp.Reset()
	if q := tp.Get(nil); q == p {
		t.Fatal("Reset did not discard instances")
	}
}

func TestICVEnvDefaults(t *testing.T) {
	t.Setenv("OMP_NUM_THREADS", "5")
	t.Setenv("OMP_SCHEDULE", "guided,4")
	t.Setenv("OMP_DYNAMIC", "true")
	t.Setenv("OMP_NESTED", "1")
	t.Setenv("OMP_WAIT_POLICY", "ACTIVE")
	t.Setenv("OMP_THREAD_LIMIT", "9")
	v := defaultICV()
	if v.NumThreads != 5 {
		t.Errorf("NumThreads = %d, want 5", v.NumThreads)
	}
	if v.RunSched != (Sched{Kind: SchedGuidedChunked, Chunk: 4}) {
		t.Errorf("RunSched = %+v", v.RunSched)
	}
	if !v.Dynamic || v.MaxActiveLevels <= 1 {
		t.Errorf("Dynamic/MaxActiveLevels = %v/%v, want true and > 1", v.Dynamic, v.MaxActiveLevels)
	}
	if v.WaitPolicy != WaitActive {
		t.Errorf("WaitPolicy = %v, want active", v.WaitPolicy)
	}
	if v.ThreadLimit != 9 {
		t.Errorf("ThreadLimit = %d, want 9", v.ThreadLimit)
	}
}

func TestICVEnvCommaList(t *testing.T) {
	t.Setenv("OMP_NUM_THREADS", "4,2,1")
	if v := defaultICV(); v.NumThreads != 4 {
		t.Errorf("NumThreads = %d, want first list entry 4", v.NumThreads)
	}
}

func TestICVEnvGarbageIgnored(t *testing.T) {
	t.Setenv("OMP_NUM_THREADS", "zero")
	t.Setenv("OMP_SCHEDULE", "whatever,nope")
	v := defaultICV()
	if v.NumThreads < 1 {
		t.Errorf("NumThreads fell to %d on garbage input", v.NumThreads)
	}
	if v.RunSched.Kind != SchedStatic {
		t.Errorf("RunSched = %+v, want static default", v.RunSched)
	}
}

func TestUpdateICVClampsThreads(t *testing.T) {
	ResetICV()
	defer ResetICV()
	UpdateICV(func(v *ICV) { v.NumThreads = -3 })
	if got := GetICV().NumThreads; got != 1 {
		t.Fatalf("NumThreads = %d, want clamp to 1", got)
	}
}
