package kmp

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// The dependence-semantics grid: for each DAG shape (chain, fan-out,
// fan-in, diamond) × team size, every task must execute exactly once and
// every predecessor must be observably complete before its successor
// starts (happens-before through the per-task done flags: the release
// protocol orders the predecessor's flag store before the successor's
// enqueue, so a successor reading a zero flag is a real ordering bug).

type depProbe struct {
	runs atomic.Int32 // exactly-once counter
	done atomic.Bool  // set at body end; checked by successors at body start
}

func (p *depProbe) start(t *testing.T, name string, preds ...*depProbe) {
	t.Helper()
	p.runs.Add(1)
	for i, pre := range preds {
		if !pre.done.Load() {
			t.Errorf("%s started before predecessor %d completed", name, i)
		}
	}
}

func (p *depProbe) finish() { p.done.Store(true) }

func checkOnce(t *testing.T, name string, probes []*depProbe) {
	t.Helper()
	for i, p := range probes {
		if got := p.runs.Load(); got != 1 {
			t.Errorf("%s: task %d executed %d times, want exactly once", name, i, got)
		}
	}
}

func depGridSizes() []int { return []int{1, 2, 4, 8} }

// Chain: t0 → t1 → … → t(n-1), all inout on one address.
func TestDepChain(t *testing.T) {
	for _, nth := range depGridSizes() {
		t.Run(fmt.Sprintf("threads=%d", nth), func(t *testing.T) {
			const n = 64
			probes := make([]*depProbe, n)
			for i := range probes {
				probes[i] = new(depProbe)
			}
			var token int
			ForkCall(Ident{}, nth, func(th *Thread) {
				if !th.Single() {
					th.Barrier()
					return
				}
				for i := 0; i < n; i++ {
					i := i
					var preds []*depProbe
					if i > 0 {
						preds = append(preds, probes[i-1])
					}
					th.SpawnTask(Ident{}, func(*Thread) {
						probes[i].start(t, "chain", preds...)
						probes[i].finish()
					}, TaskOpts{Deps: []DepSpec{{Name: "token", Addr: &token, Mode: DepInOut}}})
				}
				th.Barrier()
			})
			checkOnce(t, "chain", probes)
		})
	}
}

// Fan-out: one writer, many readers; a second writer after the readers.
// Readers must all follow the first writer; the closing writer must follow
// every reader (the reader-set half of the last-writer/reader-set scheme).
func TestDepFanOut(t *testing.T) {
	for _, nth := range depGridSizes() {
		t.Run(fmt.Sprintf("threads=%d", nth), func(t *testing.T) {
			const readers = 32
			writer := new(depProbe)
			closing := new(depProbe)
			rd := make([]*depProbe, readers)
			for i := range rd {
				rd[i] = new(depProbe)
			}
			var cell int
			ForkCall(Ident{}, nth, func(th *Thread) {
				if !th.Single() {
					th.Barrier()
					return
				}
				th.SpawnTask(Ident{}, func(*Thread) {
					writer.start(t, "fan-out writer")
					writer.finish()
				}, TaskOpts{Deps: []DepSpec{{Name: "cell", Addr: &cell, Mode: DepOut}}})
				for i := 0; i < readers; i++ {
					i := i
					th.SpawnTask(Ident{}, func(*Thread) {
						rd[i].start(t, "fan-out reader", writer)
						rd[i].finish()
					}, TaskOpts{Deps: []DepSpec{{Name: "cell", Addr: &cell, Mode: DepIn}}})
				}
				th.SpawnTask(Ident{}, func(*Thread) {
					closing.start(t, "fan-out closing writer", rd...)
					closing.finish()
				}, TaskOpts{Deps: []DepSpec{{Name: "cell", Addr: &cell, Mode: DepInOut}}})
				th.Barrier()
			})
			checkOnce(t, "fan-out", append(append([]*depProbe{writer}, rd...), closing))
		})
	}
}

// Fan-in: many independent writers on distinct addresses, one task reading
// all of them.
func TestDepFanIn(t *testing.T) {
	for _, nth := range depGridSizes() {
		t.Run(fmt.Sprintf("threads=%d", nth), func(t *testing.T) {
			const writers = 32
			wr := make([]*depProbe, writers)
			for i := range wr {
				wr[i] = new(depProbe)
			}
			sink := new(depProbe)
			cells := make([]int, writers)
			ForkCall(Ident{}, nth, func(th *Thread) {
				if !th.Single() {
					th.Barrier()
					return
				}
				for i := 0; i < writers; i++ {
					i := i
					th.SpawnTask(Ident{}, func(*Thread) {
						wr[i].start(t, "fan-in writer")
						wr[i].finish()
					}, TaskOpts{Deps: []DepSpec{{Name: "cell", Addr: &cells[i], Mode: DepOut}}})
				}
				var deps []DepSpec
				for i := range cells {
					deps = append(deps, DepSpec{Name: "cell", Addr: &cells[i], Mode: DepIn})
				}
				th.SpawnTask(Ident{}, func(*Thread) {
					sink.start(t, "fan-in sink", wr...)
					sink.finish()
				}, TaskOpts{Deps: deps})
				th.Barrier()
			})
			checkOnce(t, "fan-in", append(append([]*depProbe(nil), wr...), sink))
		})
	}
}

// Diamond: a → {b, c} → d over two addresses, repeated in a chain of
// diamonds so releases from different diamonds overlap.
func TestDepDiamondChain(t *testing.T) {
	for _, nth := range depGridSizes() {
		t.Run(fmt.Sprintf("threads=%d", nth), func(t *testing.T) {
			const rounds = 16
			var x, y int
			type diamond struct{ a, b, c, d *depProbe }
			ds := make([]diamond, rounds)
			var all []*depProbe
			for i := range ds {
				ds[i] = diamond{new(depProbe), new(depProbe), new(depProbe), new(depProbe)}
				all = append(all, ds[i].a, ds[i].b, ds[i].c, ds[i].d)
			}
			ForkCall(Ident{}, nth, func(th *Thread) {
				if !th.Single() {
					th.Barrier()
					return
				}
				for i := range ds {
					d := ds[i]
					var prev []*depProbe
					if i > 0 {
						prev = append(prev, ds[i-1].d)
					}
					th.SpawnTask(Ident{}, func(*Thread) {
						d.a.start(t, "diamond a", prev...)
						d.a.finish()
					}, TaskOpts{Deps: []DepSpec{
						{Name: "x", Addr: &x, Mode: DepOut},
						{Name: "y", Addr: &y, Mode: DepOut},
					}})
					th.SpawnTask(Ident{}, func(*Thread) {
						d.b.start(t, "diamond b", d.a)
						d.b.finish()
					}, TaskOpts{Deps: []DepSpec{{Name: "x", Addr: &x, Mode: DepInOut}}})
					th.SpawnTask(Ident{}, func(*Thread) {
						d.c.start(t, "diamond c", d.a)
						d.c.finish()
					}, TaskOpts{Deps: []DepSpec{{Name: "y", Addr: &y, Mode: DepInOut}}})
					th.SpawnTask(Ident{}, func(*Thread) {
						d.d.start(t, "diamond d", d.b, d.c)
						d.d.finish()
					}, TaskOpts{Deps: []DepSpec{
						{Name: "x", Addr: &x, Mode: DepIn},
						{Name: "y", Addr: &y, Mode: DepIn},
					}})
				}
				th.Barrier()
			})
			checkOnce(t, "diamond", all)
		})
	}
}

// An undeferred (if(0)) task with depend items must wait for its
// predecessors before executing on the encountering thread, and must
// release its own successors afterwards.
func TestDepUndeferredWaits(t *testing.T) {
	pred := new(depProbe)
	mid := new(depProbe)
	succ := new(depProbe)
	var cell int
	ForkCall(Ident{}, 4, func(th *Thread) {
		if !th.Single() {
			th.Barrier()
			return
		}
		th.SpawnTask(Ident{}, func(*Thread) {
			pred.start(t, "undeferred pred")
			pred.finish()
		}, TaskOpts{Deps: []DepSpec{{Name: "cell", Addr: &cell, Mode: DepOut}}})
		th.SpawnTask(Ident{}, func(*Thread) {
			mid.start(t, "undeferred mid", pred)
			mid.finish()
		}, TaskOpts{Undeferred: true, Deps: []DepSpec{{Name: "cell", Addr: &cell, Mode: DepInOut}}})
		// The undeferred task completed before SpawnTask returned.
		if !mid.done.Load() {
			t.Error("undeferred task not complete at spawn return")
		}
		th.SpawnTask(Ident{}, func(*Thread) {
			succ.start(t, "undeferred succ", pred, mid)
			succ.finish()
		}, TaskOpts{Deps: []DepSpec{{Name: "cell", Addr: &cell, Mode: DepIn}}})
		th.Barrier()
	})
	checkOnce(t, "undeferred", []*depProbe{pred, mid, succ})
}

// Dependences compose with taskwait: a taskwait after spawning a dependence
// chain completes the whole chain (withheld tasks are children too).
func TestDepTaskwaitDrainsWithheld(t *testing.T) {
	const n = 16
	var order []int
	var cell int
	ForkCall(Ident{}, 4, func(th *Thread) {
		if !th.Single() {
			th.Barrier()
			return
		}
		for i := 0; i < n; i++ {
			i := i
			th.SpawnTask(Ident{}, func(*Thread) {
				order = append(order, i) // chain-serialised: no race
			}, TaskOpts{Deps: []DepSpec{{Name: "cell", Addr: &cell, Mode: DepInOut}}})
		}
		th.Taskwait()
		if len(order) != n {
			t.Errorf("taskwait returned with %d/%d chain tasks complete", len(order), n)
		}
		for i, v := range order {
			if v != i {
				t.Errorf("chain ran out of order: position %d got task %d", i, v)
				break
			}
		}
		th.Barrier()
	})
}

// Dependences compose with taskgroup: the group end waits for withheld
// descendants as well.
func TestDepTaskgroupWaits(t *testing.T) {
	var done atomic.Int32
	var cell int
	ForkCall(Ident{}, 4, func(th *Thread) {
		if !th.Single() {
			th.Barrier()
			return
		}
		th.TaskgroupRun(Ident{}, func() {
			for i := 0; i < 24; i++ {
				th.SpawnTask(Ident{}, func(*Thread) { done.Add(1) },
					TaskOpts{Deps: []DepSpec{{Name: "cell", Addr: &cell, Mode: DepInOut}}})
			}
		})
		if got := done.Load(); got != 24 {
			t.Errorf("taskgroup end saw %d/24 dependent tasks complete", got)
		}
		th.Barrier()
	})
}

// Priority queue unit ordering: higher priority first, FIFO among equals.
func TestTaskPrioQOrdering(t *testing.T) {
	var q taskPrioQ
	mk := func(p int32) *taskNode { return &taskNode{priority: p} }
	n1a, n1b, n5, n3 := mk(1), mk(1), mk(5), mk(3)
	for _, n := range []*taskNode{n1a, n5, n1b, n3} {
		q.push(n)
	}
	want := []*taskNode{n5, n3, n1a, n1b}
	for i, w := range want {
		if got := q.pop(); got != w {
			t.Fatalf("pop %d: got priority %d (seq pos), want priority %d", i, got.priority, w.priority)
		}
	}
	if q.pop() != nil {
		t.Fatal("empty queue returned a task")
	}
}

// Prioritised ready tasks are executed before unprioritised ones when a
// single thread drains its backlog (deterministic: team of 2, the spawner
// holds the worker at a barrier until the spawn completes… simplest
// deterministic check is a serial drain on one worker).
func TestPriorityDequeueOrder(t *testing.T) {
	var order []int32
	ForkCall(Ident{}, 2, func(th *Thread) {
		if th.Single() {
			// Withhold all tasks behind one gate dependence so none
			// starts until every spawn (and its priority) is registered.
			// The gate itself is ready at once and the other thread is
			// already draining at the barrier, so its body waits for the
			// last spawn too.
			var gate int
			spawned := make(chan struct{})
			th.SpawnTask(Ident{}, func(*Thread) { <-spawned },
				TaskOpts{Deps: []DepSpec{{Name: "gate", Addr: &gate, Mode: DepOut}}})
			for _, p := range []int32{0, 2, 0, 7, 1} {
				p := p
				th.SpawnTask(Ident{}, func(*Thread) {
					// Executed under the implicit barrier drain; record
					// arrival order. Unsynchronised append is safe only
					// because this test asserts on a single-threaded
					// drain — use a critical section to stay race-free.
					Critical("prio_test", func() { order = append(order, p) })
				}, TaskOpts{Priority: p, Deps: []DepSpec{{Name: "gate", Addr: &gate, Mode: DepIn}}})
			}
			close(spawned)
		}
		th.Barrier()
	})
	if len(order) != 5 {
		t.Fatalf("got %d tasks, want 5", len(order))
	}
	// The prioritised tasks must come out highest-first relative to each
	// other; interleaving with the unprioritised (deque) tasks depends on
	// which thread drains, so only the relative order of 7,2,1 is asserted.
	var prios []int32
	for _, p := range order {
		if p > 0 {
			prios = append(prios, p)
		}
	}
	for i := 1; i < len(prios); i++ {
		if prios[i-1] < prios[i] {
			t.Fatalf("prioritised tasks dequeued out of order: %v", prios)
		}
	}
}

// Taskyield runs another ready task at the yield point.
func TestTaskyieldRunsReadyTask(t *testing.T) {
	var ran atomic.Bool
	ForkCall(Ident{}, 1, func(th *Thread) {})
	ForkCall(Ident{}, 2, func(th *Thread) {
		if th.Single() {
			th.SpawnTask(Ident{}, func(*Thread) { ran.Store(true) }, TaskOpts{})
			// The spawned task sits in this thread's deque; taskyield
			// must be allowed to run it here.
			for !ran.Load() {
				th.Taskyield()
			}
		}
		th.Barrier()
	})
	if !ran.Load() {
		t.Fatal("taskyield never executed the ready task")
	}
}

// Mergeable is accepted and executes exactly once, unmerged.
func TestMergeableNoOp(t *testing.T) {
	var n atomic.Int32
	ForkCall(Ident{}, 2, func(th *Thread) {
		if th.Single() {
			th.SpawnTask(Ident{}, func(*Thread) { n.Add(1) }, TaskOpts{Mergeable: true})
		}
		th.Barrier()
	})
	if n.Load() != 1 {
		t.Fatalf("mergeable task ran %d times", n.Load())
	}
}

// Regression: an undeferred task whose predecessor completes on ANOTHER
// thread must be run exactly once, by the waiting (encountering) thread —
// the release protocol must not enqueue the waiter-managed node (it has no
// body closure; enqueueing it crashed the drain and risked double
// execution). The gate channel forces the predecessor to finish only after
// the undeferred spawn is already parked in its dependence wait, and the
// predecessor's sleep makes a teammate steal it.
func TestDepUndeferredReleasedByOtherThread(t *testing.T) {
	for round := 0; round < 50; round++ {
		var cell int
		var predDone, midRuns atomic.Int32
		gate := make(chan struct{})
		ForkCall(Ident{}, 4, func(th *Thread) {
			if th.Single() {
				th.SpawnTask(Ident{}, func(*Thread) {
					<-gate
					time.Sleep(50 * time.Microsecond)
					predDone.Add(1)
				}, TaskOpts{Deps: []DepSpec{{Name: "cell", Addr: &cell, Mode: DepOut}}})
				// Filler tasks keep the team's task count above zero
				// through the release window, so the barrier drains keep
				// popping — a stray enqueued waiter node surfaces as a
				// nil-fn crash instead of rotting in a deque.
				for f := 0; f < 8; f++ {
					th.SpawnTask(Ident{}, func(*Thread) {
						time.Sleep(200 * time.Microsecond)
					}, TaskOpts{})
				}
				close(gate) // pred can only finish once we are about to wait
				th.SpawnTask(Ident{}, func(*Thread) {
					if predDone.Load() != 1 {
						t.Error("undeferred task ran before predecessor")
					}
					midRuns.Add(1)
				}, TaskOpts{Undeferred: true, Deps: []DepSpec{{Name: "cell", Addr: &cell, Mode: DepInOut}}})
			}
			th.Barrier()
		})
		if got := midRuns.Load(); got != 1 {
			t.Fatalf("round %d: undeferred task ran %d times, want exactly once", round, got)
		}
	}
}

// Regression: a task naming the same address in several depend items (in
// plus out reaches the runtime through the programmatic API — only the
// pragma path rejects duplicates) must not register itself as its own
// predecessor; it would be withheld forever and deadlock every wait.
func TestDepSelfDependenceDoesNotDeadlock(t *testing.T) {
	var cell int
	pred := new(depProbe)
	self := new(depProbe)
	succ := new(depProbe)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ForkCall(Ident{}, 4, func(th *Thread) {
			if th.Single() {
				th.SpawnTask(Ident{}, func(*Thread) {
					pred.start(t, "self-dep pred")
					pred.finish()
				}, TaskOpts{Deps: []DepSpec{{Name: "cell", Addr: &cell, Mode: DepOut}}})
				th.SpawnTask(Ident{}, func(*Thread) {
					self.start(t, "self-dep task", pred)
					self.finish()
				}, TaskOpts{Deps: []DepSpec{
					{Name: "cell", Addr: &cell, Mode: DepIn},
					{Name: "cell", Addr: &cell, Mode: DepOut},
				}})
				th.SpawnTask(Ident{}, func(*Thread) {
					succ.start(t, "self-dep succ", pred, self)
					succ.finish()
				}, TaskOpts{Deps: []DepSpec{{Name: "cell", Addr: &cell, Mode: DepIn}}})
				th.Taskwait()
			}
			th.Barrier()
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("self-dependent task deadlocked the region")
	}
	checkOnce(t, "self-dep", []*depProbe{pred, self, succ})
}
