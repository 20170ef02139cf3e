package omp

import (
	"sync/atomic"
	"testing"

	"gomp/internal/kmp"
)

func TestParallelTeamSize(t *testing.T) {
	var n atomic.Int32
	Parallel(func(th *Thread) {
		if th.Tid == 0 {
			n.Store(int32(th.NumThreads()))
		}
	}, NumThreads(3))
	if n.Load() != 3 {
		t.Fatalf("team size %d, want 3", n.Load())
	}
}

func TestParallelIfFalseSerialises(t *testing.T) {
	var n atomic.Int32
	var runs atomic.Int32
	Parallel(func(th *Thread) {
		runs.Add(1)
		n.Store(int32(th.NumThreads()))
	}, NumThreads(8), If(false))
	if n.Load() != 1 || runs.Load() != 1 {
		t.Fatalf("if(false) region: size=%d runs=%d, want 1/1", n.Load(), runs.Load())
	}
}

func TestParallelIfTrueForks(t *testing.T) {
	var runs atomic.Int32
	Parallel(func(th *Thread) { runs.Add(1) }, NumThreads(4), If(true))
	if runs.Load() != 4 {
		t.Fatalf("if(true) region ran %d bodies, want 4", runs.Load())
	}
}

func TestForCoversIterationSpace(t *testing.T) {
	const trip = 1000
	counts := make([]int32, trip)
	Parallel(func(th *Thread) {
		ForRange(th, trip, func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
	}, NumThreads(4))
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("iteration %d ran %d times", i, c)
		}
	}
}

func TestForSchedules(t *testing.T) {
	for _, opt := range []Option{
		Schedule(Static, 0),
		Schedule(Static, 1),
		Schedule(Static, 7),
		Schedule(Dynamic, 0),
		Schedule(Dynamic, 5),
		Schedule(Guided, 2),
		Schedule(Guided, 1, Monotonic),
		Schedule(Auto, 0),
	} {
		const trip = 500
		var sum atomic.Int64
		Parallel(func(th *Thread) {
			ForRange(th, trip, func(lo, hi int64) {
				for i := lo; i < hi; i++ {
					sum.Add(i)
				}
			}, opt)
		}, NumThreads(4))
		if want := int64(trip * (trip - 1) / 2); sum.Load() != want {
			t.Fatalf("schedule variant covered sum %d, want %d", sum.Load(), want)
		}
	}
}

func TestForRuntimeScheduleUsesICV(t *testing.T) {
	kmp.ResetICV()
	defer kmp.ResetICV()
	SetSchedule(Dynamic, 3)
	const trip = 200
	var sum atomic.Int64
	Parallel(func(th *Thread) {
		ForRange(th, trip, func(lo, hi int64) { sum.Add(hi - lo) }, Schedule(Runtime, 0))
	}, NumThreads(4))
	if sum.Load() != trip {
		t.Fatalf("runtime schedule covered %d, want %d", sum.Load(), trip)
	}
}

// The implicit barrier after For: without NoWait, no thread may proceed past
// the loop until all iterations are done.
func TestForImplicitBarrier(t *testing.T) {
	const trip = 64
	var done atomic.Int32
	var violation atomic.Bool
	Parallel(func(th *Thread) {
		ForRange(th, trip, func(lo, hi int64) { done.Add(int32(hi - lo)) })
		if done.Load() != trip {
			violation.Store(true)
		}
	}, NumThreads(4))
	if violation.Load() {
		t.Fatal("thread passed worksharing loop before all iterations completed")
	}
}

func TestForNoWaitSkipsBarrier(t *testing.T) {
	// Can't assert absence of waiting directly; assert the loop still
	// covers everything and an explicit barrier afterwards synchronises.
	const trip = 100
	var sum atomic.Int64
	Parallel(func(th *Thread) {
		ForRange(th, trip, func(lo, hi int64) { sum.Add(hi - lo) }, NoWait())
		Barrier(th)
		if th.Tid == 0 && sum.Load() != trip {
			t.Errorf("nowait loop covered %d, want %d", sum.Load(), trip)
		}
	}, NumThreads(4))
}

func TestParallelFor(t *testing.T) {
	const trip = 777
	counts := make([]int32, trip)
	ParallelFor(trip, func(th *Thread, i int64) {
		atomic.AddInt32(&counts[i], 1)
	}, NumThreads(4), Schedule(Dynamic, 10))
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("iteration %d ran %d times", i, c)
		}
	}

	// Under schedule(static) the distribution is deterministic: every
	// thread of the team must touch its own block.
	tids := make(map[int]bool)
	var mu Lock
	ParallelFor(trip, func(th *Thread, i int64) {
		mu.LockAcquire()
		tids[th.Tid] = true
		mu.Unlock()
	}, NumThreads(4), Schedule(Static, 0))
	if len(tids) != 4 {
		t.Fatalf("static distribution reached tids %v, want all 4", tids)
	}
}

func TestParallelForRange(t *testing.T) {
	const trip = 1024
	var sum atomic.Int64
	ParallelForRange(trip, func(th *Thread, lo, hi int64) {
		local := int64(0)
		for i := lo; i < hi; i++ {
			local += i
		}
		sum.Add(local)
	}, NumThreads(4))
	if want := int64(trip * (trip - 1) / 2); sum.Load() != want {
		t.Fatalf("sum %d, want %d", sum.Load(), want)
	}
}

func TestSingleRunsOnce(t *testing.T) {
	var runs atomic.Int32
	Parallel(func(th *Thread) {
		Single(th, func() { runs.Add(1) })
		Single(th, func() { runs.Add(1) })
	}, NumThreads(5))
	if runs.Load() != 2 {
		t.Fatalf("two single constructs ran %d times, want 2", runs.Load())
	}
}

func TestMaskedRunsOnMaster(t *testing.T) {
	var tid atomic.Int32
	tid.Store(-1)
	var runs atomic.Int32
	Parallel(func(th *Thread) {
		Masked(th, func() {
			runs.Add(1)
			tid.Store(int32(th.Tid))
		})
	}, NumThreads(4))
	if runs.Load() != 1 || tid.Load() != 0 {
		t.Fatalf("masked: runs=%d tid=%d, want 1 on tid 0", runs.Load(), tid.Load())
	}
}

func TestSectionsRunAll(t *testing.T) {
	var a, b, c atomic.Int32
	Parallel(func(th *Thread) {
		Sections(th, []func(){
			func() { a.Add(1) },
			func() { b.Add(1) },
			func() { c.Add(1) },
		})
	}, NumThreads(2))
	if a.Load() != 1 || b.Load() != 1 || c.Load() != 1 {
		t.Fatalf("sections ran %d/%d/%d times, want 1 each", a.Load(), b.Load(), c.Load())
	}
}

func TestCriticalProtects(t *testing.T) {
	counter := 0
	Parallel(func(th *Thread) {
		for i := 0; i < 100; i++ {
			Critical("cnt", func() { counter++ })
		}
	}, NumThreads(8))
	if counter != 800 {
		t.Fatalf("critical counter = %d, want 800", counter)
	}
}

func TestAPIOutsideParallel(t *testing.T) {
	if GetThreadNum() != 0 {
		t.Errorf("GetThreadNum outside region = %d", GetThreadNum())
	}
	if GetNumThreads() != 1 {
		t.Errorf("GetNumThreads outside region = %d", GetNumThreads())
	}
	if InParallel() {
		t.Error("InParallel outside region = true")
	}
	if GetLevel() != 0 {
		t.Errorf("GetLevel outside region = %d", GetLevel())
	}
	if GetNumProcs() < 1 {
		t.Error("GetNumProcs < 1")
	}
}

func TestAPIInsideParallel(t *testing.T) {
	var ok atomic.Bool
	ok.Store(true)
	Parallel(func(th *Thread) {
		if GetThreadNum() != th.Tid {
			ok.Store(false)
		}
		if GetNumThreads() != 4 {
			ok.Store(false)
		}
		if !InParallel() || GetLevel() != 1 {
			ok.Store(false)
		}
	}, NumThreads(4))
	if !ok.Load() {
		t.Fatal("implicit API disagreed with explicit thread context")
	}
}

func TestSetGetNumThreads(t *testing.T) {
	kmp.ResetICV()
	defer kmp.ResetICV()
	SetNumThreads(5)
	if GetMaxThreads() != 5 {
		t.Fatalf("GetMaxThreads = %d, want 5", GetMaxThreads())
	}
	SetNumThreads(0) // undefined per spec; must be ignored
	if GetMaxThreads() != 5 {
		t.Fatalf("SetNumThreads(0) changed the ICV")
	}
	var n atomic.Int32
	Parallel(func(th *Thread) { n.Store(int32(th.NumThreads())) })
	if n.Load() != 5 {
		t.Fatalf("region size %d, want ICV 5", n.Load())
	}
}

func TestDynamicNestedICVs(t *testing.T) {
	kmp.ResetICV()
	defer kmp.ResetICV()
	SetDynamic(true)
	if !GetDynamic() {
		t.Fatal("GetDynamic = false after SetDynamic(true)")
	}
	SetMaxActiveLevels(4)
	if got := GetMaxActiveLevels(); got != 4 {
		t.Fatalf("GetMaxActiveLevels = %d after SetMaxActiveLevels(4)", got)
	}
	SetMaxActiveLevels(1)
}

func TestGetWtimeMonotone(t *testing.T) {
	a := GetWtime()
	b := GetWtime()
	if b < a {
		t.Fatalf("GetWtime went backwards: %g then %g", a, b)
	}
	if GetWtick() <= 0 {
		t.Fatal("GetWtick <= 0")
	}
}
