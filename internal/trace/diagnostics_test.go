package trace_test

import (
	"strings"
	"testing"

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

// An injected dependence cycle must surface in ReadHealth, in the
// diagnostics dump, and as a WARNING section in the profiler's report;
// after release, health must recover.
func TestReportWarnsOnDepCycle(t *testing.T) {
	release := kmp.InjectDepCycle(
		kmp.Ident{File: "deadlock.go", Line: 7, Region: "stage a"},
		kmp.Ident{File: "deadlock.go", Line: 13, Region: "stage b"},
	)

	h := ReadHealth()
	if h.Healthy || len(h.Cycles) == 0 {
		release()
		t.Fatalf("injected cycle not visible: healthy=%v cycles=%d", h.Healthy, len(h.Cycles))
	}

	var sb strings.Builder
	if err := WriteDiagnostics(&sb); err != nil {
		release()
		t.Fatal(err)
	}
	dump := sb.String()
	if !strings.Contains(dump, "dependence cycles") ||
		!strings.Contains(dump, "deadlock.go:7") || !strings.Contains(dump, "deadlock.go:13") {
		release()
		t.Fatalf("diagnostics dump does not name the cycle:\n%s", dump)
	}

	// A profiler report produced while the cycle exists must carry the
	// health WARNING naming the pragma locations.
	p := New()
	p.Start()
	omp.Parallel(func(th *omp.Thread) {}, omp.NumThreads(2))
	p.Stop()
	rep := p.Report()
	if !strings.Contains(rep, "WARNING") || !strings.Contains(rep, "deadlock.go:7") {
		release()
		t.Fatalf("report missing health warning:\n%s", rep)
	}

	release()
	if h := ReadHealth(); !h.Healthy || len(h.Cycles) != 0 {
		t.Errorf("health did not recover after release: healthy=%v cycles=%d", h.Healthy, len(h.Cycles))
	}
}
