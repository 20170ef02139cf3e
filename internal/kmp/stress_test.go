package kmp

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Concurrent ICV reads and writes must never tear or deadlock
// (omp_set_num_threads from one goroutine while regions fork in others).
func TestICVConcurrentAccess(t *testing.T) {
	ResetICV()
	defer ResetICV()
	stop := make(chan struct{})
	var updater sync.WaitGroup
	updater.Add(1)
	go func() {
		defer updater.Done()
		n := 1
		for {
			select {
			case <-stop:
				return
			default:
			}
			n = n%8 + 1
			UpdateICV(func(v *ICV) { v.NumThreads = n })
		}
	}()
	var forkers sync.WaitGroup
	for g := 0; g < 4; g++ {
		forkers.Add(1)
		go func() {
			defer forkers.Done()
			for i := 0; i < 100; i++ {
				var count atomic.Int32
				var size atomic.Int32
				ForkCall(Ident{}, 0, func(th *Thread) {
					count.Add(1)
					if th.Tid == 0 {
						size.Store(int32(th.NumThreads()))
					}
					th.Barrier()
				})
				if count.Load() != size.Load() {
					t.Errorf("team ran %d bodies for size %d", count.Load(), size.Load())
					return
				}
			}
		}()
	}
	forkers.Wait()
	close(stop) // only now may the updater exit
	updater.Wait()
}

// Mixed schedule kinds back to back in one region, all nowait, stressing
// the dispatch-buffer ring with heterogeneous descriptors.
func TestDispatchMixedSchedulesNoWait(t *testing.T) {
	scheds := []Sched{
		{Kind: SchedDynamicChunked, Chunk: 3},
		{Kind: SchedGuidedChunked, Chunk: 2},
		{Kind: SchedGuidedChunked},
		{Kind: SchedDynamicChunked, Chunk: 64},
		{Kind: SchedGuidedChunked, Chunk: 16},
		{Kind: SchedStatic},
		{Kind: SchedDynamicChunked, Chunk: 1},
		{Kind: SchedGuidedChunked, Chunk: 8},
		{Kind: SchedGuidedChunked, Chunk: 1},
		{Kind: SchedDynamicChunked, Chunk: 7},
	}
	sums := make([]atomic.Int64, len(scheds))
	trips := make([]int64, len(scheds))
	for i := range trips {
		trips[i] = int64(100 + 37*i)
	}
	ForkCall(Ident{}, 6, func(th *Thread) {
		for l, sched := range scheds {
			forLoop(th, Ident{}, sched, trips[l], func(lo, hi int64) {
				sums[l].Add(hi - lo)
			})
		}
		th.Barrier()
	})
	for l := range scheds {
		if got := sums[l].Load(); got != trips[l] {
			t.Fatalf("loop %d (%v): covered %d of %d", l, scheds[l], got, trips[l])
		}
	}
}

// Nested parallelism enabled: outer×inner teams all fork real threads, and
// the goroutine→thread registry must unwind correctly afterwards.
func TestNestedForkStress(t *testing.T) {
	ResetICV()
	UpdateICV(func(v *ICV) { v.MaxActiveLevels = NestedMaxLevels })
	defer ResetICV()
	var leaves atomic.Int32
	ForkCall(Ident{}, 3, func(outer *Thread) {
		outerTid := outer.Tid
		ForkCall(Ident{}, 2, func(inner *Thread) {
			leaves.Add(1)
			if inner.Level != 2 {
				t.Errorf("inner level = %d, want 2", inner.Level)
			}
			inner.Barrier()
		})
		// After the nested region, the outer registration must be
		// restored: Current() is the outer thread again.
		if cur := Current(); cur == nil || cur.Tid != outerTid || cur.Level != 1 {
			t.Errorf("outer registration not restored after nested region")
		}
	})
	if leaves.Load() != 6 {
		t.Fatalf("nested leaves = %d, want 3*2", leaves.Load())
	}
	if Current() != nil {
		t.Fatal("registry leaked after regions")
	}
}

// ThreadPrivate under concurrent first-touch from many threads.
func TestThreadPrivateConcurrentFirstTouch(t *testing.T) {
	tp := NewThreadPrivate(func() *int64 { v := int64(1); return &v })
	var sum atomic.Int64
	ForkCall(Ident{}, 16, func(th *Thread) {
		p := tp.Get(th)
		for i := 0; i < 1000; i++ {
			*p++
		}
		sum.Add(*p)
	})
	if got := sum.Load(); got != 16*1001 {
		t.Fatalf("threadprivate sum = %d, want %d", got, 16*1001)
	}
}

// Singles interleaved with loops in one region exercise interleaving of the
// two independent sequence counters.
func TestSinglesInterleavedWithLoops(t *testing.T) {
	var singles atomic.Int32
	var iters atomic.Int64
	ForkCall(Ident{}, 4, func(th *Thread) {
		for round := 0; round < 12; round++ {
			if th.Single() {
				singles.Add(1)
			}
			th.Barrier()
			forLoop(th, Ident{}, Sched{Kind: SchedDynamicChunked, Chunk: 2}, 50, func(lo, hi int64) {
				iters.Add(hi - lo)
			})
			th.Barrier()
		}
	})
	if singles.Load() != 12 {
		t.Fatalf("singles = %d, want 12", singles.Load())
	}
	if iters.Load() != 12*50 {
		t.Fatalf("iterations = %d, want %d", iters.Load(), 12*50)
	}
}

// Copyprivate round-trips distinct values across many single instances.
func TestCopyPrivateSequence(t *testing.T) {
	const rounds = 8
	got := make([][rounds]int, 4)
	ForkCall(Ident{}, 4, func(th *Thread) {
		for r := 0; r < rounds; r++ {
			if th.Single() {
				th.CopyPrivatePublish(100 + r)
			}
			th.Barrier()
			got[th.Tid][r] = th.CopyPrivateFetch().(int)
			th.Barrier()
		}
	})
	for tid := range got {
		for r := 0; r < rounds; r++ {
			if got[tid][r] != 100+r {
				t.Fatalf("tid %d round %d fetched %d", tid, r, got[tid][r])
			}
		}
	}
}

// Zero-trip loops through every schedule: every thread must detach cleanly.
func TestZeroTripLoops(t *testing.T) {
	for _, sched := range []Sched{
		{Kind: SchedDynamicChunked, Chunk: 4},
		{Kind: SchedGuidedChunked},
		{Kind: SchedGuidedChunked, Mod: SchedModMonotonic},
	} {
		var n atomic.Int64 // shared across the team
		ForkCall(Ident{}, 3, func(th *Thread) {
			forLoop(th, Ident{}, sched, 0, func(lo, hi int64) {
				t.Errorf("body invoked for zero-trip loop")
			})
			th.Barrier()
			// And the team must still be able to run another loop.
			forLoop(th, Ident{}, sched, 10, func(lo, hi int64) { n.Add(hi - lo) })
			th.Barrier()
		})
		if n.Load() != 10 {
			t.Errorf("sched %v: follow-up loop covered %d", sched, n.Load())
		}
	}
}

// Steal-heavy tasking: one thread spawns thousands of fine-grained tasks in
// an unbalanced pattern (everything lands on thread 0's deque) while the
// rest of the team arrives at the barrier with empty deques and must feed
// entirely by stealing. Some tasks re-spawn children from whichever thread
// stole them, so deques other than thread 0's also see owner pushes racing
// thief CASes. Run under -race this exercises every shared edge of the
// Chase–Lev deque: pop vs steal on the last element, growth during steals,
// and the completion counters.
func TestTaskStealStress(t *testing.T) {
	const spawners = 4000
	var sum atomic.Int64
	var stolen atomic.Int64
	ForkCall(Ident{}, 8, func(th *Thread) {
		home := th
		if th.Tid == 0 {
			for i := 0; i < spawners; i++ {
				v := int64(i)
				th.SpawnTask(Ident{}, func(ex *Thread) {
					if ex != home {
						stolen.Add(1)
					}
					if v%16 == 0 {
						// Re-spawn from the executing thread: its deque
						// becomes a steal victim too.
						ex.SpawnTask(Ident{}, func(*Thread) { sum.Add(1) }, TaskOpts{})
					}
					sum.Add(v)
				}, TaskOpts{})
			}
		}
		th.Barrier()
	})
	want := int64(spawners)*(spawners-1)/2 + spawners/16
	if got := sum.Load(); got != want {
		t.Fatalf("steal-heavy sum = %d, want %d", got, want)
	}
	t.Logf("stolen %d of %d tasks", stolen.Load(), spawners)
}

// Recursive unbalanced spawn tree under load: every task spawns a deep
// left-heavy chain, interleaved across two back-to-back regions to check
// the pooled team's task state resets.
func TestTaskTreeStress(t *testing.T) {
	for round := 0; round < 2; round++ {
		var count atomic.Int64
		var grow func(th *Thread, depth int)
		grow = func(th *Thread, depth int) {
			count.Add(1)
			if depth == 0 {
				return
			}
			for c := 0; c < 2; c++ {
				d := depth - 1
				th.SpawnTask(Ident{}, func(ex *Thread) { grow(ex, d) }, TaskOpts{})
			}
			th.Taskwait()
		}
		ForkCall(Ident{}, 6, func(th *Thread) {
			if th.Single() {
				grow(th, 10)
			}
			th.Barrier()
		})
		if got := count.Load(); got != 1<<11-1 {
			t.Fatalf("round %d: tree ran %d nodes, want %d", round, got, 1<<11-1)
		}
	}
}

// Steals racing `cancel for`: a cancellable team runs nonmonotonic loops in
// which one thread cancels the loop instance partway while the others are
// popping and stealing ranges. Every iteration must run at most once, the
// loop must terminate, and the team must stay usable for a follow-up loop.
// Run under -race this exercises the packed-range CAS against the
// cancellation flags.
func TestStealRacesCancelFor(t *testing.T) {
	ResetICV()
	UpdateICV(func(v *ICV) { v.Cancellation = true })
	defer ResetICV()
	const nth, trip, rounds = 8, 4096, 20
	for round := 0; round < rounds; round++ {
		counts := make([]atomic.Int32, trip)
		var after atomic.Int64
		ForkCall(Ident{}, nth, func(th *Thread) {
			forLoop(th, Ident{}, Sched{Kind: SchedDynamicChunked, Chunk: 1, Mod: SchedModNonmonotonic}, trip, func(lo, hi int64) {
				for i := lo; i < hi; i++ {
					counts[i].Add(1)
				}
				if th.Tid == round%nth && lo > int64(round) {
					if th.Cancel(CancelLoop) {
						return
					}
				}
			})
			th.Barrier()
			// The cancelled-loop slot must have been retired at the
			// barrier: a follow-up stealing loop covers fully.
			forLoop(th, Ident{}, Sched{Kind: SchedGuidedChunked, Chunk: 2}, 512, func(lo, hi int64) {
				after.Add(hi - lo)
			})
			th.Barrier()
		})
		for i := range counts {
			if c := counts[i].Load(); c > 1 {
				t.Fatalf("round %d: iteration %d ran %d times", round, i, c)
			}
		}
		if after.Load() != 512 {
			t.Fatalf("round %d: post-cancel loop covered %d of 512", round, after.Load())
		}
	}
}

// Steals racing region teardown: a context deadline cancels the region while
// threads are mid-steal. The loop must stop dispatching at the next grab,
// the fork must report the context error, and no iteration may run twice.
func TestStealRacesRegionTeardown(t *testing.T) {
	const nth, trip = 8, 1 << 20
	for round := 0; round < 10; round++ {
		ctx, stop := context.WithCancel(context.Background())
		counts := make([]atomic.Int32, trip)
		var started atomic.Bool
		go func() {
			for !started.Load() {
				runtime.Gosched()
			}
			time.Sleep(time.Duration(round) * 100 * time.Microsecond)
			stop()
		}()
		err := ForkCallErr(Ident{}, nth, ctx, func(th *Thread) error {
			started.Store(true)
			forLoop(th, Ident{}, Sched{Kind: SchedDynamicChunked, Chunk: 4, Mod: SchedModNonmonotonic}, trip, func(lo, hi int64) {
				for i := lo; i < hi; i++ {
					counts[i].Add(1)
				}
				time.Sleep(time.Microsecond)
			})
			th.Barrier()
			return nil
		})
		stop()
		if err != nil && err != context.Canceled {
			t.Fatalf("round %d: ForkCallErr = %v", round, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c > 1 {
				t.Fatalf("round %d: iteration %d ran %d times", round, i, c)
			}
		}
	}
}

// Back-to-back nowait stealing loops drive the dispatch ring with live
// thieves: a fast thread may be several loop instances ahead while slow
// threads still steal from earlier ones. Descriptor recycling must never let
// a thief touch a stale range.
func TestStealingRingNoWaitLoops(t *testing.T) {
	const nth = 6
	const loops = dispatchRing * 4
	var sums [loops]atomic.Int64
	ForkCall(Ident{}, nth, func(th *Thread) {
		for l := 0; l < loops; l++ {
			trip := int64(64 + 13*l)
			forLoop(th, Ident{}, Sched{Kind: SchedDynamicChunked, Chunk: 1}, trip, func(lo, hi int64) {
				sums[l].Add(hi - lo)
			})
			// no barrier: nowait
		}
		th.Barrier()
	})
	for l := 0; l < loops; l++ {
		if got, want := sums[l].Load(), int64(64+13*l); got != want {
			t.Fatalf("nowait stealing loop %d covered %d iterations, want %d", l, got, want)
		}
	}
}

func TestStaticChunkedZeroAndNegativeChunk(t *testing.T) {
	// chunk <= 0 selects the block partition rather than dividing by zero.
	for _, chunk := range []int64{0, -3} {
		share := staticMapping(0, 1, 5, chunk)
		lo, hi, ok := share.take()
		if !ok || lo != 0 || hi != 5 {
			t.Fatalf("chunk=%d: first chunk [%d,%d) ok=%v, want [0,5)", chunk, lo, hi, ok)
		}
		if _, _, ok := share.take(); ok {
			t.Fatalf("chunk=%d: a second chunk after the block", chunk)
		}
	}
}

// Dependence release racing cancel-taskgroup: one thread spawns dependence
// chains inside a taskgroup while another thread cancels the group partway.
// Discarded tasks must still run the release protocol — successors must not
// be stranded withheld — so the group drains, the region terminates, and
// any task that did execute saw every predecessor complete. Run under -race
// this exercises the depState mutex against the cancellation flags.
func TestDepReleaseRacesCancelTaskgroup(t *testing.T) {
	ResetICV()
	UpdateICV(func(v *ICV) { v.Cancellation = true })
	defer ResetICV()
	const nth, chains, depth, rounds = 8, 16, 32, 10
	for round := 0; round < rounds; round++ {
		cells := make([]int, chains)
		ran := make([][]atomic.Bool, chains)
		for c := range ran {
			ran[c] = make([]atomic.Bool, depth)
		}
		var release atomic.Bool
		ForkCall(Ident{}, nth, func(th *Thread) {
			if th.Single() {
				th.TaskgroupRun(Ident{}, func() {
					for c := 0; c < chains; c++ {
						for d := 0; d < depth; d++ {
							c, d := c, d
							th.SpawnTask(Ident{}, func(*Thread) {
								for !release.Load() {
									runtime.Gosched()
								}
								if d > 0 && !ran[c][d-1].Load() {
									t.Errorf("round %d: chain %d task %d ran before predecessor", round, c, d)
								}
								ran[c][d].Store(true)
							}, TaskOpts{Deps: []DepSpec{{Addr: &cells[c], Mode: DepInOut}}})
						}
					}
					release.Store(true)
					// Cancel from inside the group while chains resolve.
					th.Cancel(CancelTaskgroup)
				})
			}
			th.Barrier()
		})
		// Every chain must be prefix-executed: a task ran only if all its
		// predecessors did (checked inside); nothing may run after a gap.
		for c := range ran {
			gap := false
			for d := range ran[c] {
				if !ran[c][d].Load() {
					gap = true
				} else if gap {
					t.Fatalf("round %d: chain %d task %d ran after a discarded predecessor", round, c, d)
				}
			}
		}
	}
}

// Dependence release racing region teardown: a context cancel tears the
// region down while dependence chains are mid-release. The fork must
// return (no withheld task may strand the implicit barrier), and executed
// tasks must still respect their ordering.
func TestDepReleaseRacesRegionTeardown(t *testing.T) {
	const nth, chains, depth = 8, 8, 64
	for round := 0; round < 10; round++ {
		ctx, stop := context.WithCancel(context.Background())
		cells := make([]int, chains)
		var started atomic.Bool
		go func() {
			for !started.Load() {
				runtime.Gosched()
			}
			time.Sleep(time.Duration(round) * 50 * time.Microsecond)
			stop()
		}()
		err := ForkCallErr(Ident{}, nth, ctx, func(th *Thread) error {
			started.Store(true)
			if th.Single() {
				for c := 0; c < chains; c++ {
					for d := 0; d < depth; d++ {
						c := c
						th.SpawnTask(Ident{}, func(*Thread) {
							time.Sleep(time.Microsecond)
						}, TaskOpts{Deps: []DepSpec{{Addr: &cells[c], Mode: DepInOut}}})
					}
				}
			}
			th.Barrier()
			return nil
		})
		stop()
		if err != nil && err != context.Canceled {
			t.Fatalf("round %d: ForkCallErr = %v", round, err)
		}
	}
}

// Withheld tasks released from many completing threads at once: a fan of
// dependent tasks behind gate tasks that the whole team runs, each fan task
// naming two gates, so the release that readies it comes from whichever of
// its gates completes last, on any thread. Exercises the release protocol
// and the deque pushes it makes under contention.
func TestDepReleaseContention(t *testing.T) {
	const nth, gates, fan = 8, 16, 512
	var gate [gates]int
	var sum atomic.Int64
	ForkCall(Ident{}, nth, func(th *Thread) {
		if th.Single() {
			for g := range gate {
				th.SpawnTask(Ident{}, func(*Thread) {},
					TaskOpts{Deps: []DepSpec{{Addr: &gate[g], Mode: DepOut}}})
			}
			for i := 0; i < fan; i++ {
				v := int64(i)
				th.SpawnTask(Ident{}, func(*Thread) { sum.Add(v) },
					TaskOpts{Deps: []DepSpec{
						{Addr: &gate[i%gates], Mode: DepIn},
						{Addr: &gate[(i+1)%gates], Mode: DepIn},
					}})
			}
		}
		th.Barrier()
	})
	if got, want := sum.Load(), int64(fan)*(fan-1)/2; got != want {
		t.Fatalf("dependent fan-out sum = %d, want %d", got, want)
	}
}
