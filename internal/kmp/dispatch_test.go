package kmp

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// forLoop drains thread th's share of a worksharing loop through body: the
// DispatchInit/DispatchNext loop a lowered `//omp for` runs, without the
// closing barrier.
func forLoop(th *Thread, loc Ident, sched Sched, trip int64, body func(lo, hi int64)) {
	th.DispatchInit(loc, sched, trip)
	for lo, hi, ok := th.DispatchNext(); ok; lo, hi, ok = th.DispatchNext() {
		body(lo, hi)
	}
}

// runLoop drives a dynamic-family loop on a real team, asserts exact single
// coverage of [0, trip) and returns each thread's chunks in claim order.
func runLoop(t *testing.T, nth int, sched Sched, trip int64) [][][2]int64 {
	t.Helper()
	counts := make([]int32, trip)
	chunks := make([][][2]int64, nth)
	ForkCall(Ident{}, nth, func(th *Thread) {
		th.DispatchInit(Ident{}, sched, trip)
		for {
			lo, hi, ok := th.DispatchNext()
			if !ok {
				break
			}
			if lo < 0 || hi > trip || lo >= hi {
				t.Errorf("bad chunk [%d,%d) for trip %d", lo, hi, trip)
				return
			}
			chunks[th.Tid] = append(chunks[th.Tid], [2]int64{lo, hi})
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		}
		th.Barrier()
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("sched=%v trip=%d nth=%d: iteration %d executed %d times", sched, trip, nth, i, c)
		}
	}
	return chunks
}

func TestDispatchDynamicCoverage(t *testing.T) {
	for _, nth := range []int{1, 2, 4, 8} {
		for _, trip := range []int64{0, 1, 7, 100, 1001} {
			for _, chunk := range []int64{0, 1, 3, 64} {
				runLoop(t, nth, Sched{Kind: SchedDynamicChunked, Chunk: chunk}, trip)
			}
		}
	}
}

// Every-iteration-exactly-once over the stealing engine, across the full
// nth×chunk×trip grid for every dynamic-family kind. The explicit
// nonmonotonic modifier and the unmodified default (which is nonmonotonic
// per OpenMP 5.0) must behave identically.
func TestDispatchStealingCoverage(t *testing.T) {
	kinds := []SchedKind{SchedDynamicChunked, SchedGuidedChunked, SchedAuto}
	for _, kind := range kinds {
		for _, nth := range []int{1, 2, 4, 8} {
			for _, trip := range []int64{0, 1, 7, 100, 1001} {
				for _, chunk := range []int64{0, 1, 3, 64} {
					runLoop(t, nth, Sched{Kind: kind, Chunk: chunk, Mod: SchedModNonmonotonic}, trip)
				}
			}
		}
	}
}

// The monotonic modifier puts every kind on a shared range; the per-thread
// chunk lower bounds it hands out must be strictly increasing.
func TestDispatchMonotonicModifierOrder(t *testing.T) {
	for _, kind := range []SchedKind{SchedDynamicChunked, SchedGuidedChunked, SchedAuto} {
		const nth, trip = 4, 2000
		lows := make([][]int64, nth)
		ForkCall(Ident{}, nth, func(th *Thread) {
			forLoop(th, Ident{}, Sched{Kind: kind, Chunk: 3, Mod: SchedModMonotonic}, trip, func(lo, hi int64) {
				lows[th.Tid] = append(lows[th.Tid], lo)
			})
			th.Barrier()
		})
		for tid, seq := range lows {
			for i := 1; i < len(seq); i++ {
				if seq[i] <= seq[i-1] {
					t.Fatalf("%v monotonic: thread %d saw lo %d after %d", kind, tid, seq[i], seq[i-1])
				}
			}
		}
	}
}

// A deliberately imbalanced nonmonotonic loop must trigger actual steals,
// and every steal must emit a TraceLoopSteal event.
func TestStealOccursAndIsTraced(t *testing.T) {
	const nth, trip = 4, 256
	var steals atomic.Int64
	col := NewCollector(0)
	col.Sink = func(batch []TraceEvent) {
		for _, ev := range batch {
			if ev.Kind == TraceLoopSteal {
				steals.Add(1)
			}
		}
	}
	SetCollector(col)
	defer SetCollector(nil)
	var covered atomic.Int64
	ForkCall(Ident{}, nth, func(th *Thread) {
		forLoop(th, Ident{}, Sched{Kind: SchedDynamicChunked, Chunk: 1}, trip, func(lo, hi int64) {
			covered.Add(hi - lo)
			if lo < trip/nth {
				// Thread 0's seeded block is slow: everyone else goes
				// dry and must steal from it.
				time.Sleep(200 * time.Microsecond)
			}
		})
		th.Barrier()
	})
	if covered.Load() != trip {
		t.Fatalf("covered %d of %d", covered.Load(), trip)
	}
	if steals.Load() == 0 {
		t.Fatal("imbalanced nonmonotonic loop recorded no TraceLoopSteal events")
	}
}

// Iteration spaces beyond the per-thread ranges' packed 32-bit bounds run on
// a shared range, whose word is a full 64-bit lo: the chunks must tile
// [0, trip) exactly, and under monotonic: each thread's must ascend past 2^31.
func TestDispatchHugeTripSharedRange(t *testing.T) {
	const nth, trip = 4, maxStealTrip + 10
	for _, mod := range []SchedModifier{SchedModNonmonotonic, SchedModMonotonic} {
		chunks := make([][][2]int64, nth)
		ForkCall(Ident{}, nth, func(th *Thread) {
			forLoop(th, Ident{}, Sched{Kind: SchedDynamicChunked, Chunk: 1 << 24, Mod: mod}, trip, func(lo, hi int64) {
				chunks[th.Tid] = append(chunks[th.Tid], [2]int64{lo, hi})
			})
			th.Barrier()
		})
		var all [][2]int64
		for tid, cs := range chunks {
			for i := 1; i < len(cs) && mod == SchedModMonotonic; i++ {
				if cs[i][0] <= cs[i-1][0] {
					t.Fatalf("monotonic: thread %d saw lo %d after %d", tid, cs[i][0], cs[i-1][0])
				}
			}
			all = append(all, cs...)
		}
		slices.SortFunc(all, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		next := int64(0)
		for _, c := range all {
			if c[0] != next || c[1] <= c[0] {
				t.Fatalf("%v: chunk [%d,%d) where [%d,...) was due", mod, c[0], c[1], next)
			}
			next = c[1]
		}
		if next != trip {
			t.Fatalf("%v: chunks end at %d, want %d", mod, next, trip)
		}
	}
}

func TestDispatchGuidedCoverage(t *testing.T) {
	for _, nth := range []int{1, 2, 4, 8} {
		for _, trip := range []int64{0, 1, 100, 10000} {
			for _, chunk := range []int64{0, 1, 16} {
				runLoop(t, nth, Sched{Kind: SchedGuidedChunked, Chunk: chunk}, trip)
			}
		}
	}
}

// Under monotonic: guided, and auto which runs as guided, shrink against the
// team's remainder, which only falls, so no thread's chunks ever grow.
func TestDispatchShrinkingCoverage(t *testing.T) {
	for _, kind := range []SchedKind{SchedGuidedChunked, SchedAuto} {
		for _, mod := range []SchedModifier{SchedModNone, SchedModMonotonic} {
			for _, nth := range []int{1, 4} {
				for _, trip := range []int64{0, 1, 100, 5000} {
					chunks := runLoop(t, nth, Sched{Kind: kind, Chunk: 1, Mod: mod}, trip)
					for tid, cs := range chunks {
						for i := 1; i < len(cs) && mod == SchedModMonotonic; i++ {
							if prev, cur := cs[i-1][1]-cs[i-1][0], cs[i][1]-cs[i][0]; cur > prev {
								t.Fatalf("%v nth=%d trip=%d: thread %d's chunk %d has %d iterations after %d", kind, nth, trip, tid, i, cur, prev)
							}
						}
					}
				}
			}
		}
	}
}

// On per-thread ranges auto is guided,1: two threads that claim chunks in
// turn, so that the sequences depend on the engine alone, get the same
// chunks under both schedules, steals included.
func TestAutoRunsAsGuided(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for range 20 {
		trip := 1 + rng.Int64N(5000)
		auto := lockstepChunks(Sched{Kind: SchedAuto}, trip)
		guided := lockstepChunks(Sched{Kind: SchedGuidedChunked, Chunk: 1}, trip)
		for tid := range auto {
			if !slices.Equal(auto[tid], guided[tid]) {
				t.Fatalf("trip %d: thread %d got %v under auto, %v under guided,1", trip, tid, auto[tid], guided[tid])
			}
		}
	}
}

// lockstepChunks runs a two-thread loop whose threads call DispatchNext in
// turn until each is dry, and returns each thread's chunks in claim order.
func lockstepChunks(sched Sched, trip int64) [2][][2]int64 {
	var out [2][][2]int64
	var turn atomic.Int32
	var dry [2]atomic.Bool
	ForkCall(Ident{}, 2, func(th *Thread) {
		me, other := int32(th.Tid), int32(1-th.Tid)
		th.DispatchInit(Ident{}, sched, trip)
		for {
			for turn.Load() != me && !dry[other].Load() {
				runtime.Gosched()
			}
			lo, hi, ok := th.DispatchNext()
			if ok {
				out[me] = append(out[me], [2]int64{lo, hi})
			} else {
				dry[me].Store(true)
			}
			turn.Store(other)
			if !ok {
				break
			}
		}
		th.Barrier()
	})
	return out
}

func TestDispatchStaticViaDispatchAPI(t *testing.T) {
	// libomp serves static schedules through dispatch when asked; so do we.
	runLoop(t, 4, Sched{Kind: SchedStatic}, 100)
	runLoop(t, 4, Sched{Kind: SchedStaticChunked, Chunk: 5}, 100)
	runLoop(t, 4, Sched{Kind: SchedAuto}, 100)
}

func TestDispatchRuntimeResolvesICV(t *testing.T) {
	ResetICV()
	UpdateICV(func(v *ICV) { v.RunSched = Sched{Kind: SchedDynamicChunked, Chunk: 2} })
	defer ResetICV()
	runLoop(t, 4, Sched{Kind: SchedRuntime}, 100)
}

// Guided chunks under the monotonic modifier must shrink against the global
// remainder (non-strictly) and respect the minimum chunk — libomp's
// shared-counter shape. (Unmodified guided runs on per-thread ranges, whose
// chunks taper per thread-local range instead.)
func TestGuidedChunkShape(t *testing.T) {
	const trip, nth, minChunk = 10000, 4, 8
	var mu sync.Mutex
	var sizes []int64
	ForkCall(Ident{}, nth, func(th *Thread) {
		th.DispatchInit(Ident{}, Sched{Kind: SchedGuidedChunked, Chunk: minChunk, Mod: SchedModMonotonic}, trip)
		for {
			lo, hi, ok := th.DispatchNext()
			if !ok {
				break
			}
			mu.Lock()
			sizes = append(sizes, hi-lo)
			mu.Unlock()
		}
		th.Barrier()
	})
	if len(sizes) == 0 {
		t.Fatal("no chunks issued")
	}
	// sizes is in append order, which need not be grab order (a thread can
	// be overtaken between its grab and its append), so the checks below
	// are order-free.
	var total, largest int64
	short := 0
	for _, s := range sizes {
		total += s
		largest = max(largest, s)
		if s < minChunk {
			short++
		}
	}
	if total != trip {
		t.Fatalf("guided chunks sum to %d, want %d", total, trip)
	}
	if short > 1 {
		// Only the final remnant chunk may be below minChunk.
		t.Fatalf("guided issued %d chunks below minimum %d, want at most the tail", short, minChunk)
	}
	// The first chunk should be near trip/(2·nth), far larger than minChunk.
	if largest < trip/(4*nth) {
		t.Fatalf("largest guided chunk %d suspiciously small (want ≈ %d)", largest, trip/(2*nth))
	}
}

// Dynamic with chunk=1 under contention: every thread should get work when
// trip >> nth (probabilistic but overwhelmingly certain with parked teams).
func TestDynamicSharesWork(t *testing.T) {
	const nth, trip = 4, 100000
	var perThread [nth]atomic.Int64
	ForkCall(Ident{}, nth, func(th *Thread) {
		forLoop(th, Ident{}, Sched{Kind: SchedDynamicChunked, Chunk: 16}, trip, func(lo, hi int64) {
			perThread[th.Tid].Add(hi - lo)
		})
		th.Barrier()
	})
	var total int64
	for i := range perThread {
		total += perThread[i].Load()
	}
	if total != trip {
		t.Fatalf("dynamic loop covered %d, want %d", total, trip)
	}
}

// Back-to-back nowait loops exercise the dispatch-buffer ring: more loops in
// flight than ring slots, with no barriers between them.
func TestDispatchRingNoWaitLoops(t *testing.T) {
	const nth = 4
	const loops = dispatchRing * 3
	var sums [loops]atomic.Int64
	ForkCall(Ident{}, nth, func(th *Thread) {
		for l := 0; l < loops; l++ {
			trip := int64(10 + l) // distinct trip per loop catches descriptor mixups
			forLoop(th, Ident{}, Sched{Kind: SchedDynamicChunked, Chunk: 3}, trip, func(lo, hi int64) {
				sums[l].Add(hi - lo)
			})
			// no barrier: nowait
		}
		th.Barrier()
	})
	for l := 0; l < loops; l++ {
		if got, want := sums[l].Load(), int64(10+l); got != want {
			t.Fatalf("nowait loop %d covered %d iterations, want %d", l, got, want)
		}
	}
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("parked/procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			ringWaitParked(t)
		})
	}
}

// ringWaitParked runs the nowait sequence with a zero spin budget and one
// slow thread, which enters loop 0 only once the others have run through
// the ring and parked on buffer 0, still held by loop 0. Its detach, the
// last, frees the buffer and must wake them; it then holds back from loop 1
// until they have run loop dispatchRing, so waiters nobody woke fail the
// test after a second instead of hanging it.
func ringWaitParked(t *testing.T) {
	const nth = 3
	const loops = dispatchRing * 3
	var sums [loops]atomic.Int64
	var ahead, through atomic.Int32 // fast threads at and past loop dispatchRing
	ForkCall(Ident{}, nth, func(th *Thread) {
		th.team.spinNs.Store(0) // reset by the next fork
		th.Barrier()
		slow := th.Tid == nth-1
		for l := 0; l < loops; l++ {
			switch {
			case slow && l == 0:
				for ahead.Load() < nth-1 || !parkedPeers(th) {
					runtime.Gosched()
				}
			case !slow && l == dispatchRing:
				ahead.Add(1)
			}
			trip := int64(10 + l)
			forLoop(th, Ident{}, Sched{Kind: SchedDynamicChunked, Chunk: 3}, trip, func(lo, hi int64) {
				sums[l].Add(hi - lo)
			})
			switch {
			case slow && l == 0:
				for start := time.Now(); through.Load() < nth-1 && time.Since(start) < time.Second; {
					runtime.Gosched()
				}
				if got := through.Load(); got < nth-1 {
					t.Errorf("%d of %d threads parked on the freed buffer were not woken", nth-1-got, nth-1)
				}
			case !slow && l == dispatchRing:
				through.Add(1)
			}
		}
		th.Barrier()
	})
	for l := 0; l < loops; l++ {
		if got, want := sums[l].Load(), int64(10+l); got != want {
			t.Fatalf("nowait loop %d covered %d iterations, want %d", l, got, want)
		}
	}
}

func TestDispatchNextWithoutInit(t *testing.T) {
	ForkCall(Ident{}, 2, func(th *Thread) {
		if _, _, ok := th.DispatchNext(); ok {
			t.Error("DispatchNext without DispatchInit returned ok")
		}
	})
}

func TestSectionsDistribution(t *testing.T) {
	const nSections = 7
	var ran [nSections]atomic.Int32
	ForkCall(Ident{}, 3, func(th *Thread) {
		// omp.Sections: a dynamic loop over section indices, one per chunk.
		forLoop(th, Ident{}, Sched{Kind: SchedDynamicChunked, Chunk: 1}, nSections, func(lo, hi int64) {
			ran[lo].Add(int32(hi - lo))
		})
		th.Barrier()
	})
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("section %d executed %d times, want 1", i, got)
		}
	}
}

func TestParseSchedule(t *testing.T) {
	cases := []struct {
		in      string
		want    Sched
		wantErr bool
	}{
		{"static", Sched{Kind: SchedStatic}, false},
		{"static,4", Sched{Kind: SchedStaticChunked, Chunk: 4}, false},
		{"dynamic", Sched{Kind: SchedDynamicChunked}, false},
		{"dynamic, 16", Sched{Kind: SchedDynamicChunked, Chunk: 16}, false},
		{"GUIDED,2", Sched{Kind: SchedGuidedChunked, Chunk: 2}, false},
		{"auto", Sched{Kind: SchedAuto}, false},
		{"runtime", Sched{Kind: SchedRuntime}, false},
		{"trapezoidal", Sched{}, true}, // libomp-internal, not OpenMP
		{"trapezoidal,8", Sched{}, true},
		{"nonmonotonic:dynamic,4", Sched{Kind: SchedDynamicChunked, Chunk: 4, Mod: SchedModNonmonotonic}, false},
		{"monotonic:dynamic,4", Sched{Kind: SchedDynamicChunked, Chunk: 4, Mod: SchedModMonotonic}, false},
		{"monotonic : guided , 8", Sched{Kind: SchedGuidedChunked, Chunk: 8, Mod: SchedModMonotonic}, false},
		{"MONOTONIC:static", Sched{Kind: SchedStatic, Mod: SchedModMonotonic}, false},
		{"nonmonotonic:auto", Sched{Kind: SchedAuto, Mod: SchedModNonmonotonic}, false},
		{"nonmonotonic:static", Sched{}, true},  // needs a dynamic-family kind
		{"nonmonotonic:runtime", Sched{}, true}, // modifier belongs in the ICV value
		{"sideways:dynamic", Sched{}, true},     // unknown modifier
		{"bogus", Sched{}, true},
		{"dynamic,x", Sched{}, true},
		{"dynamic,0", Sched{}, true},
		{"dynamic,-3", Sched{}, true},
	}
	for _, c := range cases {
		got, err := ParseSchedule(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseSchedule(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if !c.wantErr && got != c.want {
			t.Errorf("ParseSchedule(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestSchedKindString(t *testing.T) {
	pairs := map[SchedKind]string{
		SchedStatic: "static", SchedStaticChunked: "static",
		SchedDynamicChunked: "dynamic", SchedGuidedChunked: "guided",
		SchedRuntime: "runtime", SchedAuto: "auto",
	}
	for k, want := range pairs {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

// Sched.String must round-trip through ParseSchedule, modifier prefix
// included — the OMP_SCHEDULE surface contract.
func TestSchedStringRoundTrip(t *testing.T) {
	for _, s := range []Sched{
		{Kind: SchedDynamicChunked, Chunk: 4, Mod: SchedModNonmonotonic},
		{Kind: SchedDynamicChunked, Chunk: 4, Mod: SchedModMonotonic},
		{Kind: SchedGuidedChunked, Mod: SchedModMonotonic},
		{Kind: SchedDynamicChunked},
		{Kind: SchedStaticChunked, Chunk: 16},
		{Kind: SchedGuidedChunked, Chunk: 2, Mod: SchedModNonmonotonic},
		{Kind: SchedAuto},
	} {
		got, err := ParseSchedule(s.String())
		if err != nil {
			t.Errorf("ParseSchedule(%q): %v", s.String(), err)
			continue
		}
		if got != s {
			t.Errorf("round trip %q = %+v, want %+v", s.String(), got, s)
		}
	}
	if s := (Sched{Kind: SchedDynamicChunked, Chunk: 4, Mod: SchedModNonmonotonic}).String(); s != "nonmonotonic:dynamic,4" {
		t.Errorf("String() = %q, want nonmonotonic:dynamic,4", s)
	}
}

// libomp numeric compatibility: the constants must keep clang's values.
func TestSchedKindValues(t *testing.T) {
	want := map[SchedKind]int32{
		SchedStaticChunked: 33, SchedStatic: 34, SchedDynamicChunked: 35,
		SchedGuidedChunked: 36, SchedRuntime: 37, SchedAuto: 38,
	}
	for k, v := range want {
		if int32(k) != v {
			t.Errorf("SchedKind %s = %d, want libomp value %d", k, int32(k), v)
		}
	}
}

// An explicit monotonic modifier on schedule(runtime) must survive ICV
// resolution: even with a dynamic run-sched the loop dispatches in order.
func TestRuntimeCarriesExplicitModifier(t *testing.T) {
	ResetICV()
	UpdateICV(func(v *ICV) { v.RunSched = Sched{Kind: SchedDynamicChunked, Chunk: 3} })
	defer ResetICV()
	const nth, trip = 4, 1500
	lows := make([][]int64, nth)
	ForkCall(Ident{}, nth, func(th *Thread) {
		forLoop(th, Ident{}, Sched{Kind: SchedRuntime, Mod: SchedModMonotonic}, trip, func(lo, hi int64) {
			lows[th.Tid] = append(lows[th.Tid], lo)
		})
		th.Barrier()
	})
	var total int64
	for tid, seq := range lows {
		for i, lo := range seq {
			if i > 0 && lo <= seq[i-1] {
				t.Fatalf("thread %d saw lo %d after %d: modifier dropped at runtime resolution", tid, lo, seq[i-1])
			}
			_ = lo
		}
		total += int64(len(seq))
	}
	if total == 0 {
		t.Fatal("no chunks dispatched")
	}
}

// Non-positive trip counts must dispatch nothing on the stealing engine —
// a negative seed block would otherwise wrap the packed 32-bit bounds.
func TestStealingNonPositiveTrip(t *testing.T) {
	for _, trip := range []int64{0, -1, -4096} {
		ForkCall(Ident{}, 4, func(th *Thread) {
			forLoop(th, Ident{}, Sched{Kind: SchedDynamicChunked, Chunk: 1, Mod: SchedModNonmonotonic}, trip, func(lo, hi int64) {
				t.Errorf("trip %d dispatched chunk [%d,%d)", trip, lo, hi)
			})
			th.Barrier()
		})
	}
}

// Steal events must carry the loop's own source location, not the enclosing
// region's, so the profiler attributes steals to the right row.
func TestStealEventCarriesLoopLoc(t *testing.T) {
	loopLoc := Ident{File: "x.go", Line: 42, Region: "for"}
	var wrong atomic.Int64
	var steals atomic.Int64
	col := NewCollector(0)
	col.Sink = func(batch []TraceEvent) {
		for _, ev := range batch {
			if ev.Kind == TraceLoopSteal {
				steals.Add(1)
				if ev.Loc != loopLoc {
					wrong.Add(1)
				}
			}
		}
	}
	SetCollector(col)
	defer SetCollector(nil)
	ForkCall(Ident{Region: "parallel"}, 4, func(th *Thread) {
		forLoop(th, loopLoc, Sched{Kind: SchedDynamicChunked, Chunk: 1}, 256, func(lo, hi int64) {
			if lo < 64 {
				time.Sleep(100 * time.Microsecond)
			}
		})
		th.Barrier()
	})
	if steals.Load() == 0 {
		t.Skip("no steals occurred this run")
	}
	if wrong.Load() > 0 {
		t.Fatalf("%d of %d steal events carried the wrong location", wrong.Load(), steals.Load())
	}
}
