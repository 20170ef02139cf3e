package kmp

import (
	"testing"
)

// flightEventsAt filters a ReadFlight snapshot down to one location's
// records stamped at or after since. Rings outlive a test run (-count): a
// test that forks at some other location first, so that none of its
// regions folds into a record of an earlier run, passes its start time to
// see only its own records.
func flightEventsAt(loc Ident, since int64) []TraceEvent {
	var out []TraceEvent
	for _, ev := range ReadFlight() {
		if ev.Loc == loc && ev.When >= since {
			out = append(out, ev)
		}
	}
	return out
}

// The flight recorder must capture fork and barrier events with no
// collector installed — that is its whole point: history exists before
// anyone asks for it.
func TestFlightCapturesWithoutCollector(t *testing.T) {
	prev := FlightRecording()
	SetFlightRecorder(true)
	defer SetFlightRecorder(prev)
	if ActiveCollector() != nil {
		t.Fatal("test needs no collector installed")
	}
	loc := Ident{File: "flight_test.go", Line: 100, Region: "parallel"}
	ForkCall(loc, 2, func(th *Thread) { th.Barrier() })

	evs := flightEventsAt(loc, 0)
	var begin, end, barrier bool
	for _, ev := range evs {
		switch ev.Kind {
		case TraceForkBegin:
			begin = true
			if ev.NThreads != 2 {
				t.Errorf("fork-begin NThreads = %d, want 2", ev.NThreads)
			}
		case TraceForkEnd:
			end = true
			if ev.Dur <= 0 {
				t.Errorf("fork-end Dur = %d, want > 0", ev.Dur)
			}
		case TraceBarrier:
			barrier = true
		}
	}
	if !begin || !end || !barrier {
		t.Fatalf("flight ring missing events: begin=%v end=%v barrier=%v (%d events at loc)",
			begin, end, barrier, len(evs))
	}
}

// Disabling the recorder stops recording immediately; history recorded
// before stays readable.
func TestFlightDisableStopsRecording(t *testing.T) {
	prev := FlightRecording()
	defer SetFlightRecorder(prev)

	SetFlightRecorder(true)
	locOn := Ident{File: "flight_test.go", Line: 200, Region: "parallel"}
	ForkCall(locOn, 2, func(th *Thread) { th.Barrier() })

	SetFlightRecorder(false)
	locOff := Ident{File: "flight_test.go", Line: 201, Region: "parallel"}
	ForkCall(locOff, 2, func(th *Thread) { th.Barrier() })

	if len(flightEventsAt(locOff, 0)) != 0 {
		t.Error("events recorded while the recorder was off")
	}
	if len(flightEventsAt(locOn, 0)) == 0 {
		t.Error("disabling the recorder dropped previously recorded history")
	}
}

// A ring holds only its capacity of records: flooding it keeps the
// snapshot bounded and retains the newest events.
func TestFlightRingWrap(t *testing.T) {
	prevOn := FlightRecording()
	defer SetFlightRecorder(prevOn)
	defer SetFlightRingSize(DefaultFlightRecords)
	TrimTeams() // fresh threads, so no ring holds older history
	SetFlightRingSize(16)
	SetFlightRecorder(true)

	loc := Ident{File: "flight_test.go", Line: 300, Region: "parallel"}
	last := Ident{File: "flight_test.go", Line: 301, Region: "parallel"}
	for i := 0; i < 200; i++ {
		ForkCall(loc, 2, func(th *Thread) {})
	}
	ForkCall(last, 2, func(th *Thread) {})

	evs := ReadFlight()
	// Bounded: at most 16 records per live thread.
	teams := liveTeams()
	maxThreads := 0
	for _, tm := range teams {
		if thp := tm.thrA.Load(); thp != nil {
			maxThreads += len(*thp)
		}
	}
	if len(evs) > 16*maxThreads {
		t.Fatalf("snapshot has %d events, want <= %d (16 per %d threads)",
			len(evs), 16*maxThreads, maxThreads)
	}
	if len(flightEventsAt(last, 0)) == 0 {
		t.Error("newest region's events were not retained after wrap")
	}
}

// A flight snapshot taken while teams keep recording must be internally
// consistent (no torn records — exercised hard under -race), including the
// record a storm of back-to-back regions keeps rewriting in place: it
// always reads as a whole fork record, and its fold count never goes down
// from one snapshot to the next.
func TestFlightSnapshotDuringChurn(t *testing.T) {
	prev := FlightRecording()
	SetFlightRecorder(true)
	defer SetFlightRecorder(prev)

	loc := Ident{File: "flight_test.go", Line: 400, Region: "parallel"}
	storm := Ident{File: "flight_test.go", Line: 401, Region: "parallel for"}
	done, stormDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			ForkCall(loc, 2, func(th *Thread) {
				th.SpawnTask(loc, func(*Thread) {}, TaskOpts{})
				th.Barrier()
			})
		}
	}()
	go func() {
		defer close(stormDone)
		for i := 0; i < 2000; i++ {
			ForkCallLoop(storm, 2, nil, Sched{Kind: SchedStatic}, 64, func(*Thread, int64, int64) {}, nil)
		}
	}()
	folds := map[[2]int64]int64{} // a storm record's (gtid, When) → its largest fold count seen
	snapshot := func() {
		seen := map[[2]int64]int64{}
		for _, ev := range ReadFlight() {
			if ev.Kind > TraceTaskDepRelease {
				t.Fatalf("torn record: kind %d out of range", ev.Kind)
			}
			if ev.Loc != storm {
				continue
			}
			if ev.Kind > TraceForkEnd || ev.Tid != 0 || ev.NThreads != 2 || ev.Arg0 < 0 || ev.Dur < 0 {
				t.Fatalf("torn storm record: %+v", ev)
			}
			// The run's first region has a fork-begin of its own with the
			// same When and no folds; a record a snapshot lost to a writer
			// that kept rewriting it is simply absent.
			if ev.Arg0 > 0 {
				k := [2]int64{int64(ev.Gtid), ev.When}
				seen[k] = max(seen[k], ev.Arg0)
			}
		}
		for k, n := range seen {
			if n < folds[k] {
				t.Fatalf("fold count of the record at %v went down: %d after %d", k, n, folds[k])
			}
			folds[k] = n
		}
	}
	for i := 0; i < 20; i++ {
		snapshot()
	}
	<-done
	<-stormDone
	snapshot()
	if len(folds) == 0 {
		t.Error("no storm record seen")
	}
}

// ringHead is the head of th's event ring (0 before its first record).
func ringHead(th *Thread) uint64 {
	if r := th.ring.Load(); r != nil {
		return r.head.Load()
	}
	return 0
}

// Back-to-back regions that only the recorder listens to fold into one
// record: 10 000 fused static loops at one Ident grow the master's ring by
// its first region's two records, count the other 9 999 in Arg0, and leave
// the workers' rings alone (static-loop spans are collector-only). A fork at
// another Ident or team size starts a new record.
func TestFlightFoldsBackToBackRegions(t *testing.T) {
	prev := FlightRecording()
	SetFlightRecorder(true)
	defer SetFlightRecorder(prev)
	if ActiveCollector() != nil {
		t.Fatal("test needs no collector installed")
	}
	TrimTeams() // room in the slot tier, so every region below runs on its goroutine's own team
	static := Sched{Kind: SchedStatic}
	nop := func(*Thread, int64, int64) {}
	var ths [2]*Thread
	since := TraceNow()
	ForkCallLoop(Ident{Region: "warm"}, 2, nil, static, 64, func(th *Thread, lo, hi int64) { ths[th.Tid] = th }, nil)

	loc := Ident{File: "flight_test.go", Line: 500, Region: "parallel for"}
	master, worker := ringHead(ths[0]), ringHead(ths[1])
	const regions = 10_000
	var stale int64 // the run's Dur is refreshed every foldRefresh folds
	for i := 0; i < regions; i++ {
		if i == regions-foldRefresh {
			stale = TraceNow()
		}
		ForkCallLoop(loc, 2, nil, static, 1024, nop, nil)
	}
	if d := ringHead(ths[0]) - master; d > 2 {
		t.Errorf("master ring grew by %d records over %d regions, want <= 2", d, regions)
	}
	if d := ringHead(ths[1]) - worker; d != 0 {
		t.Errorf("worker ring grew by %d records, want 0", d)
	}
	var ends []TraceEvent
	for _, ev := range flightEventsAt(loc, since) {
		if ev.Kind == TraceForkEnd {
			ends = append(ends, ev)
		}
	}
	if len(ends) != 1 || ends[0].Arg0 != regions-1 {
		t.Fatalf("fork-end records %+v, want one with fold count %d", ends, regions-1)
	}
	if end := ends[0].When + ends[0].Dur; end < stale || end > TraceNow() {
		t.Errorf("run last seen at %d, want within the last %d regions (after %d)", end, foldRefresh, stale)
	}

	other := Ident{File: "flight_test.go", Line: 501, Region: "parallel for"}
	for _, step := range []struct {
		loc  Ident
		n    int
		grow uint64
	}{{other, 2, 2}, {loc, 2, 2}, {loc, 3, 2}, {loc, 3, 0}} {
		h := ringHead(ths[0])
		ForkCallLoop(step.loc, step.n, nil, static, 1024, nop, nil)
		if d := ringHead(ths[0]) - h; d != step.grow {
			t.Errorf("fork at %v with %d threads grew the master's ring by %d records, want %d", step.loc, step.n, d, step.grow)
		}
	}
}

// A folded region still running shows as an open fork-begin carrying the
// run's fold count, and as a fork-end counting it once it has joined.
func TestFlightShowsFoldedRegionInProgress(t *testing.T) {
	prev := FlightRecording()
	SetFlightRecorder(true)
	defer SetFlightRecorder(prev)
	TrimTeams() // room in the slot tier, so every region below runs on its goroutine's own team
	loc := Ident{File: "flight_test.go", Line: 600, Region: "parallel for"}
	static := Sched{Kind: SchedStatic}
	const before = 10
	entered, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	since := TraceNow()
	go func() {
		defer close(done)
		ForkCallLoop(Ident{Region: "warm"}, 2, nil, static, 64, func(*Thread, int64, int64) {}, nil)
		for i := 0; i < before; i++ {
			ForkCallLoop(loc, 2, nil, static, 64, func(*Thread, int64, int64) {}, nil)
		}
		ForkCallLoop(loc, 2, nil, static, 64, func(th *Thread, lo, hi int64) {
			if th.Tid == 1 {
				entered <- struct{}{}
				<-release
			}
		}, nil)
	}()
	<-entered
	// The first region recorded its own fork-begin (fold count 0); the run's
	// record is the other one.
	var open, closed int
	for _, ev := range flightEventsAt(loc, since) {
		switch {
		case ev.Kind == TraceForkBegin && ev.Arg0 == before-1:
			open++
		case ev.Kind == TraceForkEnd:
			closed++
		}
	}
	close(release)
	<-done
	if open != 1 || closed != 0 {
		t.Errorf("region in progress: %d open fork-begins with fold count %d, %d fork-ends; want 1 and 0", open, before-1, closed)
	}
	var ends []TraceEvent
	for _, ev := range flightEventsAt(loc, since) {
		if ev.Kind == TraceForkEnd {
			ends = append(ends, ev)
		}
	}
	if len(ends) != 1 || ends[0].Arg0 != before {
		t.Errorf("after the join: fork-ends %+v, want one with fold count %d", ends, before)
	}
}

// A fold whose region body records on the master's ring is undone: the
// folded record closes as it was and the region gets its own fork-end, so
// the fork-ends and their fold counts still add up to the regions run. In
// 16-record rings a body of 20 barriers reuses the folded record's slot,
// which must then be left alone: only the regions from that one on are
// accounted for by what the ring still holds.
func TestFlightFoldUndo(t *testing.T) {
	prev := FlightRecording()
	defer SetFlightRecorder(prev)
	defer SetFlightRingSize(DefaultFlightRecords)
	SetFlightRecorder(true)
	SetFlightRingSize(16)
	TrimTeams() // room in the slot tier, so every region below runs on its goroutine's own team
	for i, tc := range []struct {
		name     string
		barriers []int // per region
		counted  int64 // regions the surviving fork-ends account for
	}{
		{"fits", []int{0, 0, 1, 0, 1, 0, 0, 2, 0}, 9},
		{"overflow", []int{0, 0, 20, 0, 1, 0}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loc := Ident{File: "flight_test.go", Line: 700 + i, Region: "parallel"}
			since := TraceNow()
			ForkCall(Ident{Region: "warm"}, 2, func(*Thread) {})
			for _, nb := range tc.barriers {
				ForkCall(loc, 2, func(th *Thread) {
					for k := 0; k < nb; k++ {
						th.Barrier()
					}
				})
			}
			var counted int64
			var ends, barriers []TraceEvent
			for _, ev := range flightEventsAt(loc, since) {
				switch ev.Kind {
				case TraceForkEnd:
					counted += 1 + ev.Arg0
					ends = append(ends, ev)
				case TraceForkBegin:
					if ev.Arg0 != 0 {
						t.Errorf("fold left open: %+v", ev)
					}
				case TraceBarrier:
					if ev.Tid == 0 {
						barriers = append(barriers, ev)
					}
				default:
					t.Errorf("record of kind %v at the region's location", ev.Kind)
				}
			}
			if counted != tc.counted {
				t.Errorf("fork-ends account for %d regions, want %d", counted, tc.counted)
			}
			// A region whose body recorded has a fork-end of its own: its
			// span starts after the run before it and covers what the body
			// recorded.
			for k := 1; k < len(ends); k++ {
				if prev := ends[k-1]; ends[k].When < prev.When+prev.Dur {
					t.Errorf("fork-end at %d starts inside the one before, [%d, +%d]", ends[k].When, prev.When, prev.Dur)
				}
			}
			for _, b := range barriers {
				covered := false
				for _, e := range ends {
					covered = covered || e.When <= b.When && b.When+b.Dur <= e.When+e.Dur
				}
				if !covered {
					t.Errorf("master's barrier at [%d, +%d] lies in no fork-end span: %+v", b.When, b.Dur, ends)
				}
			}
		})
	}
}
