package kmp

import (
	"sync/atomic"
	"testing"
)

// Deque sanity single-threaded: LIFO pop order, FIFO steal order, growth
// past the initial capacity.
func TestTaskDequeOrdering(t *testing.T) {
	var d taskDeque
	nodes := make([]*taskNode, 3)
	for i := range nodes {
		nodes[i] = &taskNode{}
		d.push(nodes[i])
	}
	if got := d.pop(); got != nodes[2] {
		t.Fatalf("pop returned %p, want newest %p", got, nodes[2])
	}
	if got := d.steal(); got != nodes[0] {
		t.Fatalf("steal returned %p, want oldest %p", got, nodes[0])
	}
	if got := d.pop(); got != nodes[1] {
		t.Fatalf("pop returned %p, want %p", got, nodes[1])
	}
	if d.pop() != nil || d.steal() != nil {
		t.Fatal("empty deque returned a task")
	}
}

func TestTaskDequeGrowth(t *testing.T) {
	var d taskDeque
	const n = 4 * initialDequeCap
	nodes := make([]*taskNode, n)
	for i := range nodes {
		nodes[i] = &taskNode{}
		d.push(nodes[i])
	}
	for i := n - 1; i >= 0; i-- {
		if got := d.pop(); got != nodes[i] {
			t.Fatalf("pop %d returned wrong task after growth", i)
		}
	}
}

// One thread spawns; the implicit region-end barrier must complete all
// tasks before ForkCall returns.
func TestTaskCompletionAtRegionEnd(t *testing.T) {
	var sum atomic.Int64
	ForkCall(Ident{}, 4, func(th *Thread) {
		if th.Tid == 0 {
			for i := 1; i <= 100; i++ {
				v := int64(i)
				th.SpawnTask(Ident{}, func(*Thread) { sum.Add(v) }, TaskOpts{})
			}
		}
	})
	if got := sum.Load(); got != 100*101/2 {
		t.Fatalf("sum = %d, want %d", got, 100*101/2)
	}
}

// Taskwait waits for children (and only needs children): a parent task
// spawns two children and combines their results after taskwait.
func TestTaskwaitChildren(t *testing.T) {
	var result atomic.Int64
	ForkCall(Ident{}, 4, func(th *Thread) {
		if th.Tid != 0 {
			return
		}
		var a, b int64
		th.SpawnTask(Ident{}, func(*Thread) { a = 21 }, TaskOpts{})
		th.SpawnTask(Ident{}, func(*Thread) { b = 21 }, TaskOpts{})
		th.Taskwait()
		result.Store(a + b)
	})
	if result.Load() != 42 {
		t.Fatalf("taskwait result = %d, want 42", result.Load())
	}
}

// Recursive task tree: fib(20) through nested spawns with taskwait at each
// level, the canonical divide-and-conquer pattern.
func TestTaskRecursiveFib(t *testing.T) {
	var fib func(th *Thread, n int) int
	fib = func(th *Thread, n int) int {
		if n < 2 {
			return n
		}
		var x, y int
		th.SpawnTask(Ident{}, func(ex *Thread) { x = fib(ex, n-1) }, TaskOpts{Final: n < 8})
		y = fib(th, n-2)
		th.Taskwait()
		return x + y
	}
	var got int64
	ForkCall(Ident{}, 4, func(th *Thread) {
		if th.Single() {
			atomic.StoreInt64(&got, int64(fib(th, 20)))
		}
		th.Barrier()
	})
	if got != 6765 {
		t.Fatalf("task fib(20) = %d, want 6765", got)
	}
}

// Taskgroup waits for descendants, not just children: a task spawns a
// grandchild that must also complete before TaskgroupRun returns.
func TestTaskgroupDescendants(t *testing.T) {
	var order atomic.Int32
	var afterGroup int32
	ForkCall(Ident{}, 4, func(th *Thread) {
		if th.Tid != 0 {
			return
		}
		th.TaskgroupRun(Ident{}, func() {
			th.SpawnTask(Ident{}, func(ex *Thread) {
				ex.SpawnTask(Ident{}, func(*Thread) { order.Add(1) }, TaskOpts{})
				order.Add(1)
			}, TaskOpts{})
		})
		afterGroup = order.Load()
	})
	if afterGroup != 2 {
		t.Fatalf("taskgroup returned with %d of 2 descendants complete", afterGroup)
	}
}

// A plain taskwait does NOT wait for grandchildren — only direct children.
// The grandchild is still completed by the region-end barrier.
func TestTaskwaitOnlyChildren(t *testing.T) {
	var grandchild atomic.Int32
	var childDone atomic.Int32
	ForkCall(Ident{}, 2, func(th *Thread) {
		if th.Tid != 0 {
			return
		}
		th.SpawnTask(Ident{}, func(ex *Thread) {
			ex.SpawnTask(Ident{}, func(*Thread) { grandchild.Add(1) }, TaskOpts{})
			childDone.Add(1)
		}, TaskOpts{})
		th.Taskwait()
		if childDone.Load() != 1 {
			t.Error("taskwait returned before the child completed")
		}
	})
	if grandchild.Load() != 1 {
		t.Fatal("grandchild never completed by region end")
	}
}

// Undeferred paths: if(false) and final tasks run immediately on the
// spawning thread, and children of final tasks are included (undeferred)
// too.
func TestTaskUndeferredAndFinal(t *testing.T) {
	ForkCall(Ident{}, 2, func(th *Thread) {
		if th.Tid != 0 {
			return
		}
		ran := false
		th.SpawnTask(Ident{}, func(ex *Thread) {
			if ex != th {
				t.Error("if(false) task ran on a different thread")
			}
			ran = true
		}, TaskOpts{Undeferred: true})
		if !ran {
			t.Error("if(false) task was deferred")
		}

		depth := 0
		th.SpawnTask(Ident{}, func(ex *Thread) {
			depth = 1
			// Child of a final task: must also execute inline, now.
			ex.SpawnTask(Ident{}, func(*Thread) { depth = 2 }, TaskOpts{})
			if depth != 2 {
				t.Error("child of a final task was deferred")
			}
		}, TaskOpts{Final: true})
		if depth != 2 {
			t.Error("final task was deferred")
		}
	})
}

// Taskloop covers the iteration space exactly once under every granularity
// scheme, including nogroup followed by an explicit barrier.
func TestTaskloopCoverage(t *testing.T) {
	const trip = 1000
	for _, tc := range []struct {
		name                string
		grainsize, numTasks int64
		nogroup             bool
	}{
		{"default", 0, 0, false},
		{"grainsize", 7, 0, false},
		{"num_tasks", 13, 0, false},
		{"nogroup", 0, 8, true},
	} {
		hits := make([]atomic.Int32, trip)
		ForkCall(Ident{}, 4, func(th *Thread) {
			if th.Single() {
				th.Taskloop(Ident{}, trip, tc.grainsize, tc.numTasks, tc.nogroup, false,
					func(_ *Thread, lo, hi int64) {
						for i := lo; i < hi; i++ {
							hits[i].Add(1)
						}
					})
			}
			th.Barrier()
		})
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("%s: iteration %d executed %d times", tc.name, i, hits[i].Load())
			}
		}
	}
}

// Taskloop with an implicit group completes before the call returns.
func TestTaskloopGroupWait(t *testing.T) {
	var sum atomic.Int64
	ForkCall(Ident{}, 4, func(th *Thread) {
		if th.Single() {
			th.Taskloop(Ident{}, 100, 9, 0, false, false, func(_ *Thread, lo, hi int64) {
				for i := lo; i < hi; i++ {
					sum.Add(i)
				}
			})
			if got := sum.Load(); got != 99*100/2 {
				t.Errorf("taskloop returned early: sum = %d", got)
			}
		}
		th.Barrier()
	})
}

// Tasks outside any parallel region (nil/serial context) execute inline.
func TestTaskSerialContexts(t *testing.T) {
	ran := 0
	ForkCall(Ident{}, 1, func(th *Thread) {
		th.SpawnTask(Ident{}, func(*Thread) { ran++ }, TaskOpts{})
		th.Taskwait()
	})
	if ran != 1 {
		t.Fatalf("serial-team task ran %d times", ran)
	}
	var viaLoop int64
	ForkCall(Ident{}, 1, func(th *Thread) {
		th.Taskloop(Ident{}, 10, 0, 0, false, false, func(_ *Thread, lo, hi int64) {
			viaLoop += hi - lo
		})
	})
	if viaLoop != 10 {
		t.Fatalf("serial taskloop covered %d of 10", viaLoop)
	}
}
