package trace_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"gomp/internal/kmp"
	. "gomp/internal/trace"
	"gomp/omp"
)

// WriteDiagnostics must emit every section of the black-box dump —
// health header, live team status, flight tail — from always-on state,
// with no profiler installed. A storm of back-to-back regions is one
// folded record in the tail, marked with its region count.
func TestWriteDiagnosticsSections(t *testing.T) {
	prev := kmp.FlightRecording()
	kmp.SetFlightRecorder(true)
	defer kmp.SetFlightRecorder(prev)
	kmp.TrimTeams() // room in the slot tier, so every region below runs on this goroutine's own team
	runContrastLoops(2)
	since := kmp.TraceNow()
	for i := 0; i < 100; i++ {
		omp.ParallelForRange(64, func(*omp.Thread, int64, int64) {}, omp.NumThreads(2), omp.Loc("storm.go", 1, "parallel"))
	}
	var folded []FlightEvent
	for _, ev := range FlightEvents() {
		if ev.Region == "storm.go:1 parallel" && ev.Kind == "fork-end" && ev.WhenNs >= since {
			folded = append(folded, ev)
		}
	}
	if len(folded) != 1 || folded[0].Folded != 99 || folded[0].Arg0 != 0 {
		t.Errorf("storm of 100 regions: fork-end records %+v, want one with Folded 99", folded)
	}

	var sb strings.Builder
	if err := WriteDiagnostics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"=== gomp diagnostics ===",
		"healthy:",
		"watchdog:",
		"flight recorder:",
		"profiler active:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diagnostics missing %q:\n%s", want, out)
		}
	}
	// The flight tail must show the regions just run.
	if !strings.Contains(out, "skew.go") {
		t.Errorf("diagnostics flight tail misses skew.go regions:\n%s", out)
	}
	if !strings.Contains(out, "storm.go:1 parallel  ×100\n") {
		t.Errorf("diagnostics flight tail does not show the storm as one record of 100 regions:\n%s", out)
	}
}

// A planted barrier stall must surface in ReadHealth, in the diagnostics
// dump, and as a WARNING section in the profiler's report; after release,
// health must recover.
func TestReportWarnsOnStuckBarrier(t *testing.T) {
	stopWd := kmp.StartWatchdog(kmp.WatchdogConfig{
		Threshold: 50 * time.Millisecond,
		Interval:  5 * time.Millisecond,
	})
	defer stopWd()

	stall := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		omp.Parallel(func(th *omp.Thread) {
			if th.Tid == 0 {
				<-stall // the hang: tid 0 never reaches the barrier
			}
			omp.Barrier(th)
		}, omp.NumThreads(2), omp.Loc("stall.go", 7, "stage a"))
	}()
	var once sync.Once
	release := func() { once.Do(func() { close(stall); <-done }) }
	defer release()

	deadline := time.Now().Add(10 * time.Second)
	for ReadHealth().Healthy {
		if time.Now().After(deadline) {
			t.Fatal("planted barrier stall never made health unhealthy")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var sb strings.Builder
	if err := WriteDiagnostics(&sb); err != nil {
		t.Fatal(err)
	}
	dump := sb.String()
	if !strings.Contains(dump, "stuck workers") || !strings.Contains(dump, "in-barrier") ||
		!strings.Contains(dump, "stall.go:7") {
		t.Fatalf("diagnostics dump does not name the stalled barrier:\n%s", dump)
	}

	// A profiler report produced while the stall lasts must carry the
	// health WARNING naming the pragma location.
	p := New()
	p.Start()
	omp.Parallel(func(th *omp.Thread) {}, omp.NumThreads(2))
	p.Stop()
	rep := p.Report()
	if !strings.Contains(rep, "WARNING") || !strings.Contains(rep, "stall.go:7") {
		t.Fatalf("report missing health warning:\n%s", rep)
	}

	release()
	deadline = time.Now().Add(10 * time.Second)
	for h := ReadHealth(); !h.Healthy; h = ReadHealth() {
		if time.Now().After(deadline) {
			t.Fatalf("health did not recover after release: stuck=%v", h.Stuck)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
