package kmp

import (
	"testing"
)

// flightEventsAt filters a ReadFlight snapshot down to one location.
func flightEventsAt(loc Ident) []TraceEvent {
	var out []TraceEvent
	for _, ev := range ReadFlight() {
		if ev.Loc == loc {
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

	evs := flightEventsAt(loc)
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

	if len(flightEventsAt(locOff)) != 0 {
		t.Error("events recorded while the recorder was off")
	}
	if len(flightEventsAt(locOn)) == 0 {
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
	if len(flightEventsAt(last)) == 0 {
		t.Error("newest region's events were not retained after wrap")
	}
}

// A flight snapshot taken while teams keep recording must be internally
// consistent (no torn records — exercised hard under -race).
func TestFlightSnapshotDuringChurn(t *testing.T) {
	prev := FlightRecording()
	SetFlightRecorder(true)
	defer SetFlightRecorder(prev)

	loc := Ident{File: "flight_test.go", Line: 400, Region: "parallel"}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			ForkCall(loc, 2, func(th *Thread) {
				th.TaskSpawn(loc, func(*Thread) {}, false, false, false)
				th.Barrier()
			})
		}
	}()
	for i := 0; i < 20; i++ {
		for _, ev := range ReadFlight() {
			if ev.Kind > TraceTaskDepRelease {
				t.Fatalf("torn record: kind %d out of range", ev.Kind)
			}
		}
	}
	<-done
}
