package kmp

import (
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collect runs fn with a fresh collector installed and returns every
// event it produced, drained after the region joins.
func collect(t *testing.T, ringSize int, fn func()) ([]TraceEvent, *Collector) {
	t.Helper()
	var mu sync.Mutex
	var events []TraceEvent
	col := NewCollector(ringSize)
	col.Sink = func(batch []TraceEvent) {
		mu.Lock()
		events = append(events, batch...)
		mu.Unlock()
	}
	SetCollector(col)
	defer SetCollector(nil)
	fn()
	col.Flush()
	mu.Lock()
	defer mu.Unlock()
	return events, col
}

// Every kind has its own stable name; anything else is "unknown".
func TestTraceKindString(t *testing.T) {
	seen := map[string]bool{}
	for k := TraceForkBegin; k <= TraceTaskDepRelease; k++ {
		s := k.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Errorf("TraceKind(%d).String() = %q: empty, unknown or a duplicate", k, s)
		}
		seen[s] = true
	}
	if s := TraceKind(-1).String(); s != "unknown" {
		t.Errorf("TraceKind(-1).String() = %q, want unknown", s)
	}
	if s := (TraceTaskDepRelease + 1).String(); s != "unknown" {
		t.Errorf("kind past the last = %q, want unknown", s)
	}
}

func countKind(events []TraceEvent, k TraceKind) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

// Span-shaped events must carry monotonic timestamps and non-negative
// durations, and the loop-fini event must be attributed to its loop's
// location (the "unknown row" regression).
func TestTraceEventSpansAndPayloads(t *testing.T) {
	loc := Ident{File: "ev.go", Line: 7, Region: "parallel"}
	loopLoc := Ident{File: "ev.go", Line: 9, Region: "for"}
	events, _ := collect(t, 0, func() {
		ForkCall(loc, 4, func(th *Thread) {
			forLoop(th, loopLoc, Sched{Kind: SchedDynamicChunked, Chunk: 8}, 1000, func(lo, hi int64) {})
			th.Barrier()
		})
	})
	if n := countKind(events, TraceForkEnd); n != 1 {
		t.Fatalf("fork-end events = %d, want 1", n)
	}
	if n := countKind(events, TraceLoopInit); n != 4 {
		t.Fatalf("loop-init events = %d, want 4 (one per thread)", n)
	}
	for _, ev := range events {
		if ev.When < 0 {
			t.Errorf("%v: negative timestamp %d", ev.Kind, ev.When)
		}
		switch ev.Kind {
		case TraceForkEnd:
			if ev.Dur <= 0 {
				t.Errorf("fork-end without duration: %+v", ev)
			}
			if ev.NThreads != 4 {
				t.Errorf("fork-end NThreads = %d, want 4", ev.NThreads)
			}
		case TraceLoopInit:
			if ev.Arg0 != 1000 || ev.Arg1 != 8 {
				t.Errorf("loop-init payload = (%d, %d), want (1000, 8)", ev.Arg0, ev.Arg1)
			}
		case TraceLoopFini:
			if ev.Loc != loopLoc {
				t.Errorf("loop-fini location = %v, want %v (must not be unlocated)", ev.Loc, loopLoc)
			}
			if ev.Dur < 0 {
				t.Errorf("loop-fini negative duration: %+v", ev)
			}
		case TraceBarrier:
			if ev.Dur < 0 {
				t.Errorf("barrier negative wait: %+v", ev)
			}
		}
	}
}

// Task events: spawn/run pairs balance, runs carry the spawning
// construct's location and a span, and dependence chains emit
// stall/release events.
func TestTraceTaskAndDependenceEvents(t *testing.T) {
	taskLoc := Ident{File: "dep.go", Line: 3, Region: "task"}
	events, _ := collect(t, 0, func() {
		ForkCall(Ident{Region: "parallel"}, 4, func(th *Thread) {
			if th.Tid == 0 {
				var x int
				for i := 0; i < 8; i++ {
					th.SpawnTask(taskLoc, func(*Thread) { time.Sleep(50 * time.Microsecond) },
						TaskOpts{Deps: []DepSpec{{Addr: &x, Mode: DepInOut}}})
				}
				th.Taskwait()
			}
			th.Barrier()
		})
	})
	spawns := countKind(events, TraceTaskSpawn)
	runs := countKind(events, TraceTaskRun)
	if spawns != 8 {
		t.Fatalf("task-spawn events = %d, want 8", spawns)
	}
	if runs != 8 {
		t.Fatalf("task-run events = %d, want 8", runs)
	}
	if n := countKind(events, TraceTaskDepStall); n == 0 {
		t.Error("inout chain produced no dep-stall events")
	}
	if n := countKind(events, TraceTaskDepRelease); n == 0 {
		t.Error("inout chain produced no dep-release events")
	}
	for _, ev := range events {
		if ev.Kind == TraceTaskRun {
			if ev.Loc != taskLoc {
				t.Errorf("task-run location = %v, want %v", ev.Loc, taskLoc)
			}
			if ev.Dur <= 0 {
				t.Errorf("task-run without duration: %+v", ev)
			}
		}
		if ev.Kind == TraceTaskSpawn && ev.Arg0 != 1 {
			t.Errorf("task-spawn depend count = %d, want 1", ev.Arg0)
		}
	}
}

// A ring too small for the region's event volume must drop (and count)
// the overflow, never corrupt: every event that does come out is
// well-formed and per-ring emission timestamps stay monotonic. 16 records
// is the smallest ring there is; the recorder's size (256 by default,
// GOMP_FLIGHT=16 makes it 16) is too small for 200 loops all the same.
func TestRingOverflowDropsAreCountedNotCorrupted(t *testing.T) {
	events, col := collect(t, 16, func() {
		ForkCall(Ident{Region: "p"}, 2, func(th *Thread) {
			for i := 0; i < 200; i++ {
				forLoop(th, Ident{File: "of.go", Line: i, Region: "for"},
					Sched{Kind: SchedDynamicChunked, Chunk: 4}, 64, func(lo, hi int64) {})
				th.Barrier()
			}
		})
	})
	if col.Drops() == 0 {
		t.Fatalf("200 loops into small rings dropped nothing (got %d events)", len(events))
	}
	last := map[int]int64{}
	for _, ev := range events {
		if ev.Kind < TraceForkBegin || ev.Kind > TraceTaskDepRelease {
			t.Fatalf("corrupt event kind %d", ev.Kind)
		}
		// Spans (loop-fini, barrier, …) are stamped with their start and
		// emitted at their end, so a steal inside a loop precedes the
		// loop's own span in the ring with a later When: emission time is
		// When+Dur, and that is what a ring keeps in order.
		if end := ev.When + ev.Dur; end < last[ev.Gtid] {
			t.Fatalf("gtid %d timestamps went backwards: %d after %d", ev.Gtid, end, last[ev.Gtid])
		} else {
			last[ev.Gtid] = end
		}
	}
}

// The ring is one: with the recorder off a collector still receives every
// event, and the recorder's reader finds none of them.
func TestCollectorWithRecorderOff(t *testing.T) {
	prev := FlightRecording()
	SetFlightRecorder(false)
	defer SetFlightRecorder(prev)
	loc := Ident{File: "trace_test.go", Line: 1, Region: "parallel"}
	events, _ := collect(t, 0, func() {
		ForkCall(loc, 2, func(th *Thread) { th.Barrier() })
	})
	for k, want := range map[TraceKind]int{TraceForkBegin: 1, TraceForkEnd: 1, TraceBarrier: 2} {
		if n := countKind(events, k); n != want {
			t.Errorf("%v events = %d, want %d", k, n, want)
		}
	}
	if evs := flightEventsAt(loc, 0); len(evs) != 0 {
		t.Errorf("ReadFlight returned %d events recorded while the recorder was off", len(evs))
	}
}

// A collector never sees a fold. Installed while a region the recorder alone
// listened to runs, it still receives the next region whole: the master's
// ring already serves the collector by the join, but the region's fork-end
// is written for the recorder alone, and the next fork must not fold into it.
func TestCollectorNeverSeesFolds(t *testing.T) {
	prev := FlightRecording()
	SetFlightRecorder(true)
	defer SetFlightRecorder(prev)
	TrimTeams() // room in the slot tier, so every region below runs on its goroutine's own team
	loc := Ident{File: "trace_test.go", Line: 3, Region: "parallel"}
	ForkCall(Ident{Region: "warm"}, 2, func(*Thread) {})
	ForkCall(loc, 2, func(*Thread) {})
	var mu sync.Mutex
	var got []TraceEvent
	col := NewCollector(0)
	col.Sink = func(batch []TraceEvent) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, batch...)
	}
	defer SetCollector(nil)
	ForkCall(loc, 2, func(th *Thread) {
		if th.Tid == 0 {
			SetCollector(col)
		}
		th.Barrier()
	})
	ForkCall(loc, 2, func(*Thread) {})
	SetCollector(nil)
	col.Flush()
	mu.Lock()
	defer mu.Unlock()
	var begins, ends int
	for _, ev := range got {
		if ev.Loc == loc && ev.Kind == TraceForkBegin {
			begins++
		}
		if ev.Loc == loc && ev.Kind == TraceForkEnd {
			ends++
		}
	}
	if begins != 1 || ends != 1 {
		t.Errorf("collector saw %d fork-begins and %d fork-ends of the region forked after it was installed, want 1 and 1", begins, ends)
	}
}

// With the recorder on and a collector installed, each event is written
// once and read twice: the collector's Sink and ReadFlight see the same
// records of a region.
func TestSinkAndFlightReadTheSameRecords(t *testing.T) {
	prev := FlightRecording()
	SetFlightRecorder(true)
	defer SetFlightRecorder(prev)
	loc := Ident{File: "trace_test.go", Line: 2, Region: "parallel"}
	before := TraceNow() // the rings still hold earlier runs of this test
	events, _ := collect(t, 0, func() {
		ForkCall(loc, 2, func(th *Thread) {
			forLoop(th, Ident{}, Sched{Kind: SchedDynamicChunked, Chunk: 4}, 64, func(lo, hi int64) {})
			th.Barrier()
		})
	})
	var sunk []TraceEvent
	for _, ev := range events {
		if ev.Loc == loc {
			sunk = append(sunk, ev)
		}
	}
	flown := flightEventsAt(loc, before)
	order := func(evs []TraceEvent) {
		sort.Slice(evs, func(i, j int) bool {
			a, b := evs[i], evs[j]
			if a.Gtid != b.Gtid {
				return a.Gtid < b.Gtid
			}
			if a.When != b.When {
				return a.When < b.When
			}
			return a.Kind < b.Kind
		})
	}
	order(sunk)
	order(flown)
	if len(sunk) < 8 || !reflect.DeepEqual(sunk, flown) {
		t.Fatalf("sink received %d records, ReadFlight returned %d; want the same (at least 8):\nsink   %+v\nflight %+v",
			len(sunk), len(flown), sunk, flown)
	}
}

// Whether a dynamic loop is recorded is decided at its DispatchInit: a
// collector installed while the loop runs (recorder off) must not receive
// a loop-fini span starting at a previous loop's entry or at the trace
// epoch. Every span it does receive lies inside the region.
func TestLoopSpanStartsInsideItsLoop(t *testing.T) {
	prev := FlightRecording()
	defer SetFlightRecorder(prev)
	// A recorded loop first, so a stale entry timestamp would be at hand.
	SetFlightRecorder(true)
	ForkCall(Ident{Region: "before"}, 2, func(th *Thread) {
		forLoop(th, Ident{}, Sched{Kind: SchedDynamicChunked, Chunk: 1}, 8, func(lo, hi int64) {})
	})
	SetFlightRecorder(false)
	var mu sync.Mutex
	var spans []TraceEvent
	col := NewCollector(0)
	col.Sink = func(batch []TraceEvent) {
		mu.Lock()
		defer mu.Unlock()
		for _, ev := range batch {
			if ev.Kind == TraceLoopFini {
				spans = append(spans, ev)
			}
		}
	}
	defer SetCollector(nil)
	var install sync.Once
	before := TraceNow()
	ForkCall(Ident{Region: "parallel"}, 2, func(th *Thread) {
		forLoop(th, Ident{File: "stale.go", Line: 1, Region: "for"}, Sched{Kind: SchedDynamicChunked, Chunk: 1}, 64,
			func(lo, hi int64) { install.Do(func() { SetCollector(col) }) })
	})
	after := TraceNow()
	SetCollector(nil)
	col.Flush()
	mu.Lock()
	defer mu.Unlock()
	for _, ev := range spans {
		if ev.When < before || ev.When+ev.Dur > after || ev.Dur > after-before {
			t.Errorf("loop-fini span [%d, %d] (Dur %d ns) outside its region [%d, %d] (%d ns)",
				ev.When, ev.When+ev.Dur, ev.Dur, before, after, after-before)
		}
	}
}

// Disabled tracing must emit nothing, and a collector must not receive
// events produced while it was uninstalled.
func TestCollectorUninstallStopsDelivery(t *testing.T) {
	var n atomic.Int64
	col := NewCollector(0)
	col.Sink = func(batch []TraceEvent) { n.Add(int64(len(batch))) }
	SetCollector(col)
	ForkCall(Ident{}, 2, func(th *Thread) { th.Barrier() })
	SetCollector(nil)
	col.Flush()
	if n.Load() == 0 {
		t.Fatal("installed collector saw nothing")
	}
	seen := n.Load()
	ForkCall(Ident{}, 2, func(th *Thread) { th.Barrier() })
	col.Flush()
	if n.Load() != seen {
		t.Fatal("uninstalled collector still receiving events")
	}
}

// Lifecycle stress (run under -race): collectors are installed, flushed
// and uninstalled while teams fork, steal loop ranges, run dependent
// tasks and cancel — the installation race the OMPT-style global tool
// pointer must survive.
func TestTracerLifecycleStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ForkCall(Ident{File: "stress.go", Line: g, Region: "parallel"}, 4, func(th *Thread) {
					forLoop(th, Ident{File: "stress.go", Line: 100 + g, Region: "for"},
						Sched{Kind: SchedDynamicChunked, Chunk: 1}, 64, func(lo, hi int64) {
							if lo == 0 {
								time.Sleep(10 * time.Microsecond) // invite steals
							}
						})
					var x int
					th.SpawnTask(Ident{Region: "task"}, func(*Thread) {},
						TaskOpts{Deps: []DepSpec{{Addr: &x, Mode: DepOut}}})
					th.SpawnTask(Ident{Region: "task"}, func(*Thread) {},
						TaskOpts{Deps: []DepSpec{{Addr: &x, Mode: DepIn}}})
					th.Taskwait()
					th.Barrier()
				})
			}
		}(g)
	}
	deadline := time.After(500 * time.Millisecond)
	var drained atomic.Int64
	for done := false; !done; {
		col := NewCollector(64) // small: force overflow drops under load
		col.Sink = func(batch []TraceEvent) { drained.Add(int64(len(batch))) }
		SetCollector(col)
		time.Sleep(2 * time.Millisecond)
		col.Flush()
		SetCollector(nil)
		col.Flush()
		select {
		case <-deadline:
			done = true
		default:
		}
	}
	close(stop)
	wg.Wait()
	if drained.Load() == 0 {
		t.Error("stressed collectors drained no events")
	}
}
