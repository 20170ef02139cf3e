package kmp

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// runOrderedLoop drives a worksharing loop whose every iteration executes an
// ordered region appending its index, and asserts the appended sequence is
// exactly 0..trip-1 in order. The ordered ticket chain itself serialises the
// appends, so the slice needs no extra locking — which is precisely the
// property under test.
func runOrderedLoop(t *testing.T, nth int, sched Sched, trip int64) {
	t.Helper()
	sched.Ordered = true
	var got []int64
	ForkCall(Ident{}, nth, func(th *Thread) {
		forLoop(th, Ident{}, sched, trip, func(lo, hi int64) {
			for k := lo; k < hi; k++ {
				i := k
				th.Ordered(func() { got = append(got, i) })
			}
		})
		th.Barrier()
	})
	if int64(len(got)) != trip {
		t.Fatalf("sched=%v nth=%d: ordered ran %d regions, want %d", sched, nth, len(got), trip)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("sched=%v nth=%d: position %d holds iteration %d (out of order)", sched, nth, i, v)
		}
	}
}

func TestOrderedSequence(t *testing.T) {
	scheds := []Sched{
		{Kind: SchedDynamicChunked, Chunk: 1},
		{Kind: SchedDynamicChunked, Chunk: 7},
		{Kind: SchedGuidedChunked, Chunk: 4},
		{Kind: SchedStatic},
		{Kind: SchedStaticChunked, Chunk: 5},
		{Kind: SchedGuidedChunked, Chunk: 2, Mod: SchedModMonotonic},
	}
	for _, sched := range scheds {
		for _, nth := range []int{1, 3, 4} {
			for _, trip := range []int64{0, 1, 10, 100} {
				runOrderedLoop(t, nth, sched, trip)
			}
		}
	}
}

// The ordered clause must force monotonic dispatch even when the schedule
// asks for nonmonotonic-by-default kinds; sequencing would be impossible on
// stolen (reordered) chunks.
func TestOrderedForcesMonotonic(t *testing.T) {
	runOrderedLoop(t, 4, Sched{Kind: SchedDynamicChunked, Chunk: 3, Mod: SchedModNonmonotonic}, 200)
	runOrderedLoop(t, 4, Sched{Kind: SchedAuto}, 200)
}

// Iterations that skip their ordered region must not stall later chunks:
// the chunk-finish protocol skips their tickets.
func TestOrderedPartialRegions(t *testing.T) {
	const nth, trip = 4, 120
	var got []int64
	ForkCall(Ident{}, nth, func(th *Thread) {
		forLoop(th, Ident{}, Sched{Kind: SchedDynamicChunked, Chunk: 5, Ordered: true}, trip, func(lo, hi int64) {
			for k := lo; k < hi; k++ {
				if k%2 != 0 {
					continue // odd iterations never encounter the region
				}
				i := k
				th.Ordered(func() { got = append(got, i) })
			}
		})
		th.Barrier()
	})
	if len(got) != trip/2 {
		t.Fatalf("ordered ran %d regions, want %d", len(got), trip/2)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("ordered regions out of order: %d after %d", got[i], got[i-1])
		}
	}
}

// A loop carrying the ordered clause whose body never encounters an ordered
// region must still terminate (ticket skipping at every chunk boundary).
func TestOrderedClauseWithoutRegions(t *testing.T) {
	var covered atomic.Int64
	ForkCall(Ident{}, 4, func(th *Thread) {
		forLoop(th, Ident{}, Sched{Kind: SchedDynamicChunked, Chunk: 3, Ordered: true}, 100, func(lo, hi int64) {
			covered.Add(hi - lo)
		})
		th.Barrier()
	})
	if covered.Load() != 100 {
		t.Fatalf("covered %d of 100", covered.Load())
	}
}

// The ticket is handed on once per chunk, from Ordered or from the chunk's
// retirement, whichever pattern of ordered regions the chunk ran. Every
// schedule × team size × pattern must execute each iteration exactly once
// and the requested ordered regions exactly once each, in ascending order.
// Under -race the unsynchronised appends also check that each hand-off
// orders a chunk's regions after its predecessor's.
func TestOrderedGrid(t *testing.T) {
	scheds := []struct {
		name  string
		sched Sched
	}{
		{"static", Sched{Kind: SchedStatic}},
		{"static,3", Sched{Kind: SchedStaticChunked, Chunk: 3}},
		{"dynamic,1", Sched{Kind: SchedDynamicChunked, Chunk: 1}},
		{"dynamic,8", Sched{Kind: SchedDynamicChunked, Chunk: 8}},
		{"guided", Sched{Kind: SchedGuidedChunked}},
		{"monotonic:dynamic,8", Sched{Kind: SchedDynamicChunked, Chunk: 8, Mod: SchedModMonotonic}},
	}
	patterns := []struct {
		name string
		hit  func(k, hi int64) bool
	}{
		{"every", func(int64, int64) bool { return true }},
		{"every-other", func(k, _ int64) bool { return k%2 == 0 }},
		{"chunk-last", func(k, hi int64) bool { return k == hi-1 }},
		{"none", func(int64, int64) bool { return false }},
	}
	const trip = 97
	for _, s := range scheds {
		for _, nth := range []int{1, 2, 3, 8} {
			for _, p := range patterns {
				t.Run(fmt.Sprintf("%s/nth=%d/%s", s.name, nth, p.name), func(t *testing.T) {
					sched := s.sched
					sched.Ordered = true
					var runs [trip]atomic.Int32
					var asked [trip]atomic.Bool
					var got []int64
					ForkCall(Ident{}, nth, func(th *Thread) {
						forLoop(th, Ident{}, sched, trip, func(lo, hi int64) {
							for k := lo; k < hi; k++ {
								runs[k].Add(1)
								if p.hit(k, hi) {
									asked[k].Store(true)
									th.Ordered(func() { got = append(got, k) })
								}
							}
						})
						th.Barrier()
					})
					var want []int64
					for k := range runs {
						if n := runs[k].Load(); n != 1 {
							t.Fatalf("iteration %d ran %d times", k, n)
						}
						if asked[k].Load() {
							want = append(want, int64(k))
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("ordered regions ran as %v, want %v", got, want)
					}
				})
			}
		}
	}
}

// Ordered outside any worksharing loop (orphaned construct, serial region)
// degenerates to direct execution.
func TestOrderedOutsideLoop(t *testing.T) {
	ran := false
	var th *Thread
	th.Ordered(func() { ran = true })
	if !ran {
		t.Fatal("nil-thread Ordered did not run the body")
	}
	ran = false
	ForkCall(Ident{}, 2, func(th *Thread) {
		if th.Tid == 0 {
			th.Ordered(func() { ran = true })
		}
		th.Barrier()
	})
	if !ran {
		t.Fatal("Ordered outside a loop did not run the body")
	}
}

// Cancelling an ordered loop must release threads parked in the ticket
// chain instead of deadlocking them.
func TestOrderedCancelReleasesWaiters(t *testing.T) {
	ResetICV()
	UpdateICV(func(v *ICV) { v.Cancellation = true })
	defer ResetICV()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ForkCall(Ident{}, 4, func(th *Thread) {
			forLoop(th, Ident{}, Sched{Kind: SchedDynamicChunked, Chunk: 1, Ordered: true}, 400, func(lo, hi int64) {
				for k := lo; k < hi; k++ {
					if k == 5 && th.Cancel(CancelLoop) {
						return // branch to the loop's end, region's ticket never issued
					}
					th.Ordered(func() {})
				}
			})
			th.Barrier()
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled ordered loop deadlocked")
	}
}

// Regression: a thread that consumed every ordered ticket of its chunk and
// then stalls lets successors advance the ticket past the chunk before the
// thread's finish runs. The finish must neither spin on an exact match the
// ticket has already passed nor rewind the ticket. (This deadlocked when
// the finish waited on != and stored unconditionally.)
func TestOrderedFinishAfterSuccessorAdvances(t *testing.T) {
	done := make(chan struct{})
	var got []int64
	go func() {
		defer close(done)
		ForkCall(Ident{}, 2, func(th *Thread) {
			forLoop(th, Ident{}, Sched{Kind: SchedDynamicChunked, Chunk: 5, Ordered: true}, 20, func(lo, hi int64) {
				for k := lo; k < hi; k++ {
					i := k
					th.Ordered(func() { got = append(got, i) })
				}
				if lo == 0 {
					// Stall between the last ordered region of chunk
					// [0,5) and the next DispatchNext: the other thread
					// consumes ticket 5 onward in the meantime.
					time.Sleep(100 * time.Millisecond)
				}
			})
			th.Barrier()
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ordered chunk finish deadlocked after successor advanced the ticket")
	}
	if len(got) != 20 {
		t.Fatalf("ordered ran %d regions, want 20", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("position %d holds iteration %d", i, v)
		}
	}
}

// schedule(static[,chunk]) ordered must preserve OpenMP's deterministic
// static iteration-to-thread mapping: iteration i runs on the same thread a
// plain static loop would give it, while the ordered chain still sequences
// the regions.
func TestOrderedStaticKeepsMapping(t *testing.T) {
	const nth, trip = 4, 103
	for _, chunk := range []int64{0, 1, 5} {
		owner := make([]int, trip)
		sched := Sched{Kind: SchedStatic, Chunk: chunk, Ordered: true}
		if chunk > 0 {
			sched.Kind = SchedStaticChunked
		}
		ForkCall(Ident{}, nth, func(th *Thread) {
			forLoop(th, Ident{}, sched, trip, func(lo, hi int64) {
				for k := lo; k < hi; k++ {
					i := k
					th.Ordered(func() { owner[i] = th.Tid })
				}
			})
			th.Barrier()
		})
		for i := int64(0); i < trip; i++ {
			var want int
			if chunk > 0 {
				want = int((i / chunk) % nth)
			} else {
				for tid := 0; tid < nth; tid++ {
					if lo, hi := StaticBlock(tid, nth, trip); i >= lo && i < hi {
						want = tid
					}
				}
			}
			if owner[i] != want {
				t.Fatalf("chunk=%d: iteration %d ran on thread %d, static mapping says %d", chunk, i, owner[i], want)
			}
		}
	}
}
