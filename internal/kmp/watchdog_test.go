package kmp

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// A worker parked in a barrier past the threshold trips the watchdog
// exactly once for the whole stall, and the report names the region it is
// stuck in. The worker runs a task in the barrier first and still reads
// in-barrier after it.
func TestWatchdogTripsOnBarrierHang(t *testing.T) {
	loc := Ident{File: "watchdog_test.go", Line: 10, Region: "parallel"}
	const threshold = 50 * time.Millisecond
	before := WatchdogTrips()
	tripped := make(chan *HangReport, 1)
	stop := StartWatchdog(WatchdogConfig{
		Threshold: threshold,
		Interval:  10 * time.Millisecond,
		OnTrip: func(r *HangReport) {
			select {
			case tripped <- r:
			default:
			}
		},
	})
	defer stop()

	release := make(chan struct{})
	done := make(chan struct{})
	var ranOn atomic.Int64 // Gtid+1 of the thread that ran tid 0's task
	go func() {
		defer close(done)
		ForkCall(loc, 2, func(th *Thread) {
			if th.Tid == 0 {
				// tid 1 runs this task in the barrier, then waits again.
				th.SpawnTask(loc, func(ex *Thread) { ranOn.Store(int64(ex.Gtid) + 1) }, TaskOpts{})
				<-release // the hang: tid 0 never reaches the barrier
			}
			th.Barrier()
		})
	}()

	var rep *HangReport
	select {
	case rep = <-tripped:
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog did not trip on a hung barrier")
	}
	// The episode latch: sweeps that keep finding the same stall while it
	// lasts stay silent.
	time.Sleep(3 * threshold)
	trips := WatchdogTrips() - before
	// A barrier waiter that ran a task there reports in-barrier again.
	waiter := int(ranOn.Load()) - 1
	inBarrier := false
	for _, tm := range ReadStatus().Teams {
		for _, w := range tm.Workers {
			if w.Gtid == waiter && w.Tid == 1 {
				inBarrier = w.State == StateInBarrier.String()
			}
		}
	}
	close(release)
	<-done
	if trips != 1 {
		t.Errorf("one stall held for three thresholds after the first trip counted %d trips, want 1", trips)
	}
	if !inBarrier {
		t.Errorf("the waiter that ran tid 0's task (g%d) is not reported in-barrier", waiter)
	}

	found := false
	for _, s := range rep.Stuck {
		if s.State == StateInBarrier.String() && strings.Contains(s.Region, "watchdog_test.go:10") {
			found = true
			if s.ForNs < threshold.Nanoseconds() {
				t.Errorf("stuck ForNs = %v, want >= threshold", time.Duration(s.ForNs))
			}
		}
	}
	if !found {
		t.Fatalf("report does not name the in-barrier worker at the region: %s", rep)
	}
	if LastHangReport() == nil {
		t.Error("last report not retained")
	}
}

// Healthy churn must not trip the watchdog, also with a team
// oversubscribed twice over (up to eight threads).
func TestWatchdogNoFalsePositives(t *testing.T) {
	before := WatchdogTrips()
	stop := StartWatchdog(WatchdogConfig{
		Threshold: 2 * time.Second,
		Interval:  10 * time.Millisecond,
	})
	defer stop()
	loc := Ident{File: "watchdog_test.go", Line: 210, Region: "parallel"}
	over := min(2*runtime.GOMAXPROCS(0), 8)
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		ForkCall(loc, 2, func(th *Thread) { th.Barrier() })
		ForkCall(loc, over, func(th *Thread) { th.Barrier() })
	}
	if got := WatchdogTrips(); got != before {
		t.Fatalf("watchdog tripped %d times on healthy churn", got-before)
	}
	h := ReadHealth()
	if !h.Healthy || !h.WatchdogRunning {
		t.Errorf("health = %+v, want healthy with watchdog running", h)
	}
}

// Stopping the watchdog clears its running flag and stuck snapshot; the
// trip history is retained.
func TestWatchdogStopIdempotent(t *testing.T) {
	stop := StartWatchdog(WatchdogConfig{Threshold: time.Hour})
	if !WatchdogRunning() {
		t.Fatal("watchdog not running after start")
	}
	stop()
	stop() // second call must be a no-op
	if WatchdogRunning() {
		t.Fatal("watchdog still running after stop")
	}
}
