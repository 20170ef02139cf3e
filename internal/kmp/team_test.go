package kmp

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestForkCallRunsAllThreads(t *testing.T) {
	const n = 8
	seen := make([]atomic.Int32, n)
	ForkCall(Ident{Region: "test"}, n, func(th *Thread) {
		seen[th.Tid].Add(1)
		if th.NumThreads() != n {
			t.Errorf("NumThreads = %d, want %d", th.NumThreads(), n)
		}
	})
	for tid := range seen {
		if got := seen[tid].Load(); got != 1 {
			t.Fatalf("tid %d executed %d times, want 1", tid, got)
		}
	}
}

func TestForkCallMasterIsCaller(t *testing.T) {
	// The calling goroutine must run as tid 0 (libomp: forking thread
	// becomes master), observable via Current() inside the region.
	var masterSawSelf atomic.Bool
	ForkCall(Ident{}, 4, func(th *Thread) {
		if th.Tid == 0 && Current() == th {
			masterSawSelf.Store(true)
		}
	})
	if !masterSawSelf.Load() {
		t.Fatal("master thread was not the calling goroutine")
	}
}

func TestForkCallSingleThread(t *testing.T) {
	runs := 0
	ForkCall(Ident{}, 1, func(th *Thread) {
		runs++
		if th.Tid != 0 || th.NumThreads() != 1 {
			t.Errorf("serial region: tid=%d n=%d", th.Tid, th.NumThreads())
		}
		if th.InParallel() {
			t.Error("InParallel true in a team of one")
		}
	})
	if runs != 1 {
		t.Fatalf("serial region ran %d times", runs)
	}
}

func TestForkCallDefaultsToICV(t *testing.T) {
	ResetICV()
	UpdateICV(func(v *ICV) { v.NumThreads = 3 })
	defer ResetICV()
	var n atomic.Int32
	ForkCall(Ident{}, 0, func(th *Thread) {
		if th.Tid == 0 {
			n.Store(int32(th.NumThreads()))
		}
	})
	if n.Load() != 3 {
		t.Fatalf("team size %d, want ICV value 3", n.Load())
	}
}

func TestForkCallThreadLimit(t *testing.T) {
	ResetICV()
	UpdateICV(func(v *ICV) { v.ThreadLimit = 2 })
	defer ResetICV()
	var n atomic.Int32
	ForkCall(Ident{}, 16, func(th *Thread) {
		if th.Tid == 0 {
			n.Store(int32(th.NumThreads()))
		}
	})
	if n.Load() != 2 {
		t.Fatalf("team size %d, want thread-limit 2", n.Load())
	}
}

func TestNestedSerializesByDefault(t *testing.T) {
	ResetICV()
	defer ResetICV()
	var innerSizes sync.Map
	ForkCall(Ident{}, 4, func(outer *Thread) {
		ForkCall(Ident{}, 4, func(inner *Thread) {
			innerSizes.Store(outer.Tid, inner.NumThreads())
		})
	})
	count := 0
	innerSizes.Range(func(_, v any) bool {
		count++
		if v.(int) != 1 {
			t.Errorf("nested region forked %d threads, want serialised 1", v.(int))
		}
		return true
	})
	if count != 4 {
		t.Fatalf("nested region ran in %d outer threads, want 4", count)
	}
}

func TestNestedForksWhenEnabled(t *testing.T) {
	ResetICV()
	UpdateICV(func(v *ICV) { v.MaxActiveLevels = NestedMaxLevels })
	defer ResetICV()
	var total atomic.Int32
	ForkCall(Ident{}, 2, func(outer *Thread) {
		ForkCall(Ident{}, 3, func(inner *Thread) {
			total.Add(1)
			if inner.NumThreads() != 3 {
				t.Errorf("nested team size %d, want 3", inner.NumThreads())
			}
		})
	})
	if total.Load() != 6 {
		t.Fatalf("nested fork executed %d bodies, want 2*3=6", total.Load())
	}
}

// The implicit end-of-region barrier: all side effects must be visible when
// ForkCall returns.
func TestForkCallJoinVisibility(t *testing.T) {
	const n = 8
	data := make([]int, n)
	for round := 0; round < 50; round++ {
		ForkCall(Ident{}, n, func(th *Thread) {
			data[th.Tid] = round + 1
		})
		for tid, v := range data {
			if v != round+1 {
				t.Fatalf("round %d: tid %d wrote %d — join did not synchronise", round, tid, v)
			}
		}
	}
}

// Hot-team reuse must not leak worksharing state between regions.
func TestTeamReuseCleanState(t *testing.T) {
	for round := 0; round < 20; round++ {
		var singles atomic.Int32
		var sum atomic.Int64
		ForkCall(Ident{}, 4, func(th *Thread) {
			if th.Single() {
				singles.Add(1)
			}
			th.Barrier()
			forLoop(th, Ident{}, Sched{Kind: SchedDynamicChunked, Chunk: 3}, 100, func(lo, hi int64) {
				for i := lo; i < hi; i++ {
					sum.Add(1)
				}
			})
			th.Barrier()
			if th.Tid == 0 && sum.Load() != 100 {
				t.Errorf("round %d: dynamic loop covered %d iterations, want 100", round, sum.Load())
			}
		})
		if got := singles.Load(); got != 1 {
			t.Fatalf("round %d: %d threads won the single, want 1", round, got)
		}
	}
}

// Concurrent root forks (parallel tests, servers) must get independent teams.
func TestConcurrentRootForks(t *testing.T) {
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var count atomic.Int32
			ForkCall(Ident{}, 4, func(th *Thread) {
				count.Add(1)
				th.Barrier()
			})
			if count.Load() != 4 {
				t.Errorf("concurrent fork ran %d threads, want 4", count.Load())
			}
		}()
	}
	wg.Wait()
}

func TestBarrierInsideRegion(t *testing.T) {
	const n = 6
	var before, after atomic.Int32
	ForkCall(Ident{}, n, func(th *Thread) {
		before.Add(1)
		th.Barrier()
		if before.Load() != n {
			t.Errorf("tid %d passed barrier with only %d arrivals", th.Tid, before.Load())
		}
		after.Add(1)
	})
	if after.Load() != n {
		t.Fatalf("after = %d, want %d", after.Load(), n)
	}
}

func TestMaster(t *testing.T) {
	var masters atomic.Int32
	ForkCall(Ident{}, 5, func(th *Thread) {
		if th.Master() {
			masters.Add(1)
			if th.Tid != 0 {
				t.Errorf("Master() true for tid %d", th.Tid)
			}
		}
	})
	if masters.Load() != 1 {
		t.Fatalf("%d masters, want 1", masters.Load())
	}
}

func TestCurrentOutsideRegionIsNil(t *testing.T) {
	if th := Current(); th != nil {
		t.Fatalf("Current() outside any region = %+v, want nil", th)
	}
}

func TestIdentString(t *testing.T) {
	if s := (Ident{Region: "parallel"}).String(); s != "parallel" {
		t.Fatalf("Ident.String = %q", s)
	}
	id := Ident{File: "main.go", Line: 12, Region: "for"}
	if s := id.String(); s != "main.go:12 for" {
		t.Fatalf("Ident.String = %q", s)
	}
}

func TestTracerHook(t *testing.T) {
	var events atomic.Int32
	col := NewCollector(0)
	col.Sink = func(batch []TraceEvent) { events.Add(int32(len(batch))) }
	SetCollector(col)
	defer SetCollector(nil)
	ForkCall(Ident{Region: "traced"}, 2, func(th *Thread) { th.Barrier() })
	if events.Load() == 0 {
		t.Fatal("collector saw no events")
	}
	SetCollector(nil)
	col.Flush()
	start := events.Load()
	ForkCall(Ident{}, 2, func(th *Thread) {})
	col.Flush()
	if events.Load() != start {
		t.Fatal("collector received events after being uninstalled")
	}
}

// Oversubscription: teams far larger than the processor count must fork,
// synchronise and join — the configuration the paper's 96/128-thread table
// rows need on smaller hosts.
func TestForkOversubscribed(t *testing.T) {
	const n = 96
	var count atomic.Int32
	ForkCall(Ident{}, n, func(th *Thread) {
		count.Add(1)
		th.Barrier()
		th.Barrier()
	})
	if count.Load() != n {
		t.Fatalf("oversubscribed fork ran %d threads, want %d", count.Load(), n)
	}
}

// A long sequence of forks with varying sizes stresses hot-team resize and
// barrier rebuild paths.
func TestForkResizeChurn(t *testing.T) {
	sizes := []int{2, 7, 3, 16, 1, 5, 16, 2}
	for round := 0; round < 10; round++ {
		for _, n := range sizes {
			var count atomic.Int32
			ForkCall(Ident{}, n, func(th *Thread) {
				count.Add(1)
				th.Barrier()
			})
			if int(count.Load()) != n {
				t.Fatalf("size %d: ran %d", n, count.Load())
			}
		}
	}
}
