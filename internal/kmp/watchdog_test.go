package kmp

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// A worker parked in a barrier past the threshold trips the watchdog
// exactly once for the whole stall, and the report names the region it is
// stuck in.
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
	go func() {
		defer close(done)
		ForkCall(loc, 2, func(th *Thread) {
			if th.Tid == 0 {
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
	close(release)
	<-done
	if trips != 1 {
		t.Errorf("one stall held for three thresholds after the first trip counted %d trips, want 1", trips)
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

// An injected dependence cycle trips the watchdog immediately (no
// threshold wait) and the report names every participant's pragma
// location and depend items.
func TestWatchdogTripsOnDepCycle(t *testing.T) {
	locA := Ident{File: "watchdog_test.go", Line: 70, Region: "task"}
	locB := Ident{File: "watchdog_test.go", Line: 71, Region: "task"}
	tripped := make(chan *HangReport, 1)
	stop := StartWatchdog(WatchdogConfig{
		Threshold: time.Hour, // stuck detector must stay quiet
		Interval:  5 * time.Millisecond,
		OnTrip: func(r *HangReport) {
			select {
			case tripped <- r:
			default:
			}
		},
	})
	defer stop()

	release := InjectDepCycle(locA, locB)
	var rep *HangReport
	select {
	case rep = <-tripped:
	case <-time.After(10 * time.Second):
		release()
		t.Fatal("watchdog did not trip on an injected dependence cycle")
	}
	if len(rep.Cycles) == 0 {
		t.Fatalf("trip report carries no cycle: %s", rep)
	}
	text := rep.String()
	for _, want := range []string{"watchdog_test.go:70", "watchdog_test.go:71", "inout:injected", "deadlock"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}

	release()
	// Health must recover once the cycle is released.
	deadline := time.Now().Add(5 * time.Second)
	for !ReadHealth().Healthy {
		if time.Now().After(deadline) {
			t.Fatal("health did not recover after the cycle was released")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// DetectDepCycles on demand: finds an injected cycle without any
// watchdog, and reports nothing once released.
func TestDetectDepCyclesOnDemand(t *testing.T) {
	locA := Ident{File: "watchdog_test.go", Line: 120, Region: "task"}
	locB := Ident{File: "watchdog_test.go", Line: 121, Region: "task"}
	locC := Ident{File: "watchdog_test.go", Line: 122, Region: "task"}
	release := InjectDepCycle(locA, locB, locC)

	cycles := DetectDepCycles()
	if len(cycles) != 1 {
		release()
		t.Fatalf("DetectDepCycles found %d cycles, want 1", len(cycles))
	}
	if n := len(cycles[0].Tasks); n != 3 {
		t.Errorf("cycle has %d tasks, want 3", n)
	}
	chain := cycles[0].String()
	for _, want := range []string{"watchdog_test.go:120", "watchdog_test.go:121", "watchdog_test.go:122"} {
		if !strings.Contains(chain, want) {
			t.Errorf("cycle chain missing %q: %s", want, chain)
		}
	}

	release()
	if left := DetectDepCycles(); len(left) != 0 {
		t.Fatalf("cycles remain after release: %v", left)
	}
}

// A linear (acyclic) dependence chain must never be reported as a cycle,
// even while its head is blocked and every successor sits withheld.
func TestDepChainIsNotACycle(t *testing.T) {
	loc := Ident{File: "watchdog_test.go", Line: 160, Region: "task"}
	var x int
	release := make(chan struct{})
	checked := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ForkCall(loc, 2, func(th *Thread) {
			if th.Tid != 0 {
				return
			}
			th.SpawnTask(loc, func(*Thread) { <-release }, TaskOpts{
				Deps: []DepSpec{{Name: "x", Addr: &x, Mode: DepOut}},
			})
			for i := 0; i < 3; i++ {
				th.SpawnTask(loc, func(*Thread) {}, TaskOpts{
					Deps: []DepSpec{{Name: "x", Addr: &x, Mode: DepInOut}},
				})
			}
			close(checked)
			th.Taskwait()
		})
	}()
	<-checked
	if cycles := DetectDepCycles(); len(cycles) != 0 {
		t.Errorf("linear chain reported as cycle: %v", cycles)
	}
	close(release)
	<-done
	// The registry must drain once the chain completes.
	for _, tm := range liveTeams() {
		if n := tm.withheldN.Load(); n != 0 {
			t.Errorf("withheld registry leaks %d entries after completion", n)
		}
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
