package omp

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestParallelErrReturnsFirstError(t *testing.T) {
	sentinel := errors.New("boom")
	var ran atomic.Int32
	err := ParallelErr(func(th *Thread) error {
		ran.Add(1)
		if th.Tid == 1 {
			return sentinel
		}
		return nil
	}, NumThreads(4))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if ran.Load() != 4 {
		t.Fatalf("body ran on %d threads, want 4", ran.Load())
	}
}

func TestParallelErrRecoversPanic(t *testing.T) {
	err := ParallelErr(func(th *Thread) error {
		if th.Tid == 2 {
			panic("kaboom")
		}
		return nil
	}, NumThreads(4))
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want recovered panic mentioning kaboom", err)
	}
}

func TestParallelErrSerialTeamRecoversPanic(t *testing.T) {
	err := ParallelErr(func(th *Thread) error {
		panic("serial kaboom")
	}, NumThreads(1))
	if err == nil || !strings.Contains(err.Error(), "serial kaboom") {
		t.Fatalf("err = %v, want recovered panic", err)
	}
}

func TestParallelErrNilOnSuccess(t *testing.T) {
	if err := ParallelErr(func(th *Thread) error { return nil }, NumThreads(4)); err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
}

// A deadline mid-loop must tear the team down at the next chunk boundary and
// surface context.DeadlineExceeded — the bounded-latency contract of the v2
// API.
func TestWithContextDeadline(t *testing.T) {
	ctx, stop := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer stop()
	var iters atomic.Int64
	err := ParallelErr(func(th *Thread) error {
		ForRange(th, 1<<40, func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				iters.Add(1)
				time.Sleep(50 * time.Microsecond)
			}
		}, Schedule(Dynamic, 8), NoWait())
		return nil
	}, NumThreads(4), WithContext(ctx))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if iters.Load() == 0 {
		t.Fatal("loop never ran before the deadline")
	}
}

// spin is enough work per iteration that a loop of 1<<22 or more cannot
// finish before a few-millisecond deadline.
func spin(i int64) int64 {
	acc := i
	for j := int64(0); j < 24; j++ {
		acc = acc*31 + j
	}
	return acc & 1
}

func TestWithContextDeadlineStaticSchedule(t *testing.T) {
	ctx, stop := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer stop()
	sink := make([]int64, 4)
	err := ParallelErr(func(th *Thread) error {
		// Static blocks observe the cancel flag between bounded sub-chunks.
		ForRange(th, 1<<22, func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				sink[th.Tid] += spin(i)
			}
		}, NoWait())
		return nil
	}, NumThreads(4), WithContext(ctx))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestWithContextAlreadyCancelled(t *testing.T) {
	ctx, stop := context.WithCancel(context.Background())
	stop()
	var iters atomic.Int64
	err := ParallelErr(func(th *Thread) error {
		ForRange(th, 1<<20, func(lo, hi int64) { iters.Add(hi - lo) }, NoWait())
		return nil
	}, NumThreads(4), WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

// A thread that fails an iteration cancels the region: the team stops at
// the next chunk boundary instead of running the rest of the loop.
func TestBodyErrorCancelsRemainingIterations(t *testing.T) {
	sentinel := errors.New("bad element")
	var after atomic.Int64
	err := ParallelErr(func(th *Thread) error {
		var bad error
		ForRange(th, 1<<20, func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				if i == 0 {
					bad = sentinel
					Cancel(th, CancelParallel)
					return
				}
				after.Add(1)
			}
		}, Schedule(Dynamic, 16), NoWait())
		return bad
	}, NumThreads(4))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if after.Load() >= 1<<20-1 {
		t.Fatal("error did not cancel remaining iterations")
	}
}

// A panic in one thread's loop chunk comes back as ParallelErr's error, and
// the team it tore down is usable again.
func TestParallelErrRecoversLoopPanic(t *testing.T) {
	err := ParallelErr(func(th *Thread) error {
		ForRange(th, 1<<16, func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				if i == 1000 {
					panic("loop kaboom")
				}
			}
		}, Schedule(Dynamic, 64), NoWait())
		return nil
	}, NumThreads(4))
	if err == nil || !strings.Contains(err.Error(), "loop kaboom") {
		t.Fatalf("err = %v, want recovered panic mentioning loop kaboom", err)
	}
	var n atomic.Int64
	Parallel(func(th *Thread) {
		ForRange(th, 1000, func(lo, hi int64) { n.Add(hi - lo) })
	}, NumThreads(4))
	if n.Load() != 1000 {
		t.Fatalf("loop after the panic covered %d iterations, want 1000", n.Load())
	}
}

// The generic cell must agree with a serial fold for every operator and a
// mix of types, including named and unsigned ones.
func TestGenericReductionTypedVariants(t *testing.T) {
	type watts float32
	r := NewReduction(ReduceMax, watts(1))
	Parallel(func(th *Thread) {
		local := r.Identity()
		ForRange(th, 1000, func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				if w := watts(i % 777); w > local {
					local = w
				}
			}
		})
		r.Combine(local)
	}, NumThreads(4))
	if got := r.Value(); got != 776 {
		t.Fatalf("max = %v, want 776", got)
	}

	u := NewReduction(ReduceSum, uint64(1<<63))
	Parallel(func(th *Thread) {
		local := u.Identity()
		ForRange(th, 1000, func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				local += uint64(i)
			}
		})
		u.Combine(local)
	}, NumThreads(4))
	if got := u.Value(); got != 1<<63+999*1000/2 {
		t.Fatalf("uint64 sum = %d", got)
	}
}

func TestCancelRequiresCancellation(t *testing.T) {
	SetCancellation(false)
	defer SetCancellation(false)
	var cancelled, completed atomic.Int32
	Parallel(func(th *Thread) {
		if Cancel(th, CancelParallel) {
			cancelled.Add(1)
			return
		}
		completed.Add(1)
	}, NumThreads(4))
	if cancelled.Load() != 0 || completed.Load() != 4 {
		t.Fatalf("cancel activated without cancel-var: cancelled=%d completed=%d",
			cancelled.Load(), completed.Load())
	}

	SetCancellation(true)
	cancelled.Store(0)
	completed.Store(0)
	Parallel(func(th *Thread) {
		if Cancel(th, CancelParallel) {
			cancelled.Add(1)
			return
		}
		completed.Add(1)
	}, NumThreads(4))
	if cancelled.Load() != 4 {
		t.Fatalf("cancel did not activate with cancel-var set: cancelled=%d", cancelled.Load())
	}
}

func TestCancelTaskgroupDiscardsUnstarted(t *testing.T) {
	var executed atomic.Int32
	err := ParallelErr(func(th *Thread) error {
		if th.Tid == 0 {
			Taskgroup(th, func() {
				Cancel(th, CancelTaskgroup)
				for i := 0; i < 100; i++ {
					Task(th, func(ex *Thread) { executed.Add(1) })
				}
			})
		}
		return nil
	}, NumThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 0 {
		t.Fatalf("%d tasks executed after taskgroup cancel, want 0", executed.Load())
	}
}

// Barrier after cancel must not deadlock: half the team cancels and returns,
// the other half arrives at an explicit barrier.
func TestCancelReleasesBarrier(t *testing.T) {
	done := make(chan struct{})
	go func() {
		_ = ParallelErr(func(th *Thread) error {
			if th.Tid%2 == 0 {
				Cancel(th, CancelParallel)
				return nil // branch to region end without arriving
			}
			time.Sleep(time.Millisecond)
			Barrier(th)
			return nil
		}, NumThreads(4))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled region deadlocked at a barrier")
	}
}

// Stress: cancellation racing task stealing. Every thread spawns recursive
// task trees while one thread cancels the taskgroup (or the whole region)
// mid-flight; stolen tasks observe the flags concurrently with the
// cancelling thread setting them. Run with -race in CI.
func TestStressCancellationRacesTaskSteals(t *testing.T) {
	for round := 0; round < 20; round++ {
		kind := CancelTaskgroup
		if round%2 == 1 {
			kind = CancelParallel
		}
		var executed atomic.Int64
		err := ParallelErr(func(th *Thread) error {
			Taskgroup(th, func() {
				var spawn func(ex *Thread, depth int)
				spawn = func(ex *Thread, depth int) {
					executed.Add(1)
					if depth == 0 {
						return
					}
					for i := 0; i < 3; i++ {
						Task(ex, func(inner *Thread) { spawn(inner, depth-1) })
					}
					if executed.Load() > 50 && th.Tid == 1 {
						Cancel(ex, kind)
					}
				}
				spawn(th, 6)
			})
			return nil
		}, NumThreads(4))
		if err != nil {
			t.Fatal(err)
		}
	}
}

// Context cancellation racing task stealing: the watcher goroutine flips the
// region flag from outside the team while workers steal and execute.
func TestStressContextCancelRacesTaskSteals(t *testing.T) {
	for round := 0; round < 10; round++ {
		ctx, stop := context.WithTimeout(context.Background(), time.Duration(round)*time.Millisecond)
		err := ParallelErr(func(th *Thread) error {
			Taskgroup(th, func() {
				for i := 0; i < 200; i++ {
					Task(th, func(ex *Thread) {
						time.Sleep(10 * time.Microsecond)
					})
				}
			})
			return nil
		}, NumThreads(4), WithContext(ctx))
		stop()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("round %d: err = %v", round, err)
		}
	}
}

// A panic inside a *deferred task* must also convert to an error: the task
// may execute at the region-end drain, outside the region body's own
// recovery, so the conversion happens at the task boundary (runTaskRecover).
func TestParallelErrRecoversTaskPanic(t *testing.T) {
	err := ParallelErr(func(th *Thread) error {
		if th.Tid == 0 {
			Task(th, func(ex *Thread) { panic("task kaboom") })
		}
		return nil
	}, NumThreads(4))
	if err == nil || !strings.Contains(err.Error(), "task kaboom") {
		t.Fatalf("err = %v, want recovered task panic", err)
	}
}

// Serialised regions (team of one) must still observe deadlines: the loop
// routes through the runtime's cancellable static driver instead of the
// single-call fast path.
func TestWithContextDeadlineSerialTeam(t *testing.T) {
	ctx, stop := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer stop()
	var sink int64
	err := ParallelErr(func(th *Thread) error {
		ForRange(th, 1<<40, func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				sink += spin(i)
			}
		}, NoWait())
		return nil
	}, NumThreads(1), WithContext(ctx))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded on a serial team", err)
	}
}

// Cancel(CancelFor) between loops must report "not inside a loop" rather
// than poisoning the loop-cancel slot with a finished instance, and a real
// cancel inside the next loop must still activate.
func TestCancelForOutsideLoopIsNoop(t *testing.T) {
	SetCancellation(true)
	defer SetCancellation(false)
	var stray, cancelled atomic.Int32
	var ran atomic.Int64
	Parallel(func(th *Thread) {
		ForRange(th, 64, func(lo, hi int64) {}, NoWait())
		if Cancel(th, CancelFor) { // no enclosing loop: must not activate
			stray.Add(1)
		}
		ForRange(th, 1<<20, func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				ran.Add(1)
				if i == 0 {
					if Cancel(th, CancelFor) {
						cancelled.Add(1)
					}
				}
			}
		}, Schedule(Dynamic, 64))
	}, NumThreads(4))
	if stray.Load() != 0 {
		t.Fatalf("cancel for outside a loop activated on %d threads", stray.Load())
	}
	if cancelled.Load() != 1 {
		t.Fatalf("cancel for inside the next loop activated %d times, want 1", cancelled.Load())
	}
	if ran.Load() >= 1<<20 {
		t.Fatal("second loop ran to completion despite cancellation")
	}
}
