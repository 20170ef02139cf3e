package trace_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"gomp/internal/kmp"
	. "gomp/internal/trace"
	"gomp/omp"
)

// Every region reaches the profile, and so does every thread's static-loop
// span: a storm of back-to-back parallel-for regions, which the flight
// recorder alone folds into one record, counts each region once — also
// when the profiler starts in the middle of a storm.
func TestProfilerCapturesRegions(t *testing.T) {
	prev := kmp.FlightRecording()
	kmp.SetFlightRecorder(true)
	defer kmp.SetFlightRecorder(prev)
	kmp.TrimTeams() // room in the slot tier, so every region below runs on its goroutine's own team
	for _, tc := range []struct {
		name     string
		line     int
		regions  int
		region   func(loc omp.Option)
		barriers int64 // per region (all threads), at least
		spans    int   // static-loop spans per thread per region
	}{
		{"barrier and dynamic loop", 42, 5, func(loc omp.Option) {
			omp.Parallel(func(th *omp.Thread) {
				omp.Barrier(th)
				omp.ForRange(th, 100, func(lo, hi int64) {}, omp.Schedule(omp.Dynamic, 10))
			}, omp.NumThreads(4), loc)
		}, 4, 0},
		{"parallel-for storm", 43, 2000, func(loc omp.Option) {
			omp.ParallelForRange(256, func(*omp.Thread, int64, int64) {}, omp.NumThreads(4), loc)
		}, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loc := omp.Loc("app.go", tc.line, "parallel")
			for i := 0; i < 10; i++ { // unprofiled: the recorder alone listens
				tc.region(loc)
			}
			p := New(WithTimeline(0))
			p.Start()
			defer p.Stop()
			for i := 0; i < tc.regions; i++ {
				tc.region(loc)
			}
			p.Stop()

			name := fmt.Sprintf("app.go:%d", tc.line)
			sums := p.Summaries()
			var region *RegionSummary
			for i := range sums {
				if strings.Contains(sums[i].Name, name) {
					region = &sums[i]
				}
			}
			if region == nil {
				t.Fatalf("region %s not captured: %+v", name, sums)
			}
			if region.Calls != int64(tc.regions) {
				t.Errorf("calls = %d, want %d", region.Calls, tc.regions)
			}
			if forks := p.Metrics().Forks.Value(); forks != int64(tc.regions) {
				t.Errorf("forks = %d, want %d", forks, tc.regions)
			}
			if region.MaxTeam != 4 {
				t.Errorf("maxTeam = %d, want 4", region.MaxTeam)
			}
			if region.Barriers < tc.barriers*int64(tc.regions) {
				t.Errorf("barriers = %d, want >= %d", region.Barriers, tc.barriers*int64(tc.regions))
			}
			if region.Total <= 0 || region.Mean <= 0 {
				t.Errorf("timings not accumulated: %+v", region)
			}

			var buf bytes.Buffer
			if err := p.WriteTimeline(&buf); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string `json:"name"`
					Cat  string `json:"cat"`
					Tid  int    `json:"tid"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			spans := map[int]int{} // gtid → static-loop spans
			for _, ev := range doc.TraceEvents {
				if ev.Cat == "loop" && strings.Contains(ev.Name, name) {
					spans[ev.Tid]++
				}
			}
			if tc.spans > 0 && len(spans) != 4 {
				t.Errorf("static-loop spans from %d threads, want 4", len(spans))
			}
			for gtid, n := range spans {
				if n != tc.spans*tc.regions {
					t.Errorf("gtid %d: %d static-loop spans, want %d", gtid, n, tc.spans*tc.regions)
				}
			}
		})
	}
}

func TestProfilerCapturesLoops(t *testing.T) {
	p := New()
	p.Start()
	defer p.Stop()
	omp.Parallel(func(th *omp.Thread) {
		omp.ForRange(th, 50, func(lo, hi int64) {}, omp.Schedule(omp.Guided, 4), omp.Loc("k.go", 7, "for"))
	}, omp.NumThreads(3))
	p.Stop()
	found := false
	for _, s := range p.Summaries() {
		if strings.Contains(s.Name, "k.go:7") && s.Loops == 3 {
			found = true // each of the 3 threads initialised the loop once
		}
	}
	if !found {
		t.Fatalf("dynamic loop inits not attributed: %+v", p.Summaries())
	}
}

func TestZones(t *testing.T) {
	p := New()
	end := p.Zone("assembly")
	time.Sleep(2 * time.Millisecond)
	end()
	end2 := p.Zone("assembly")
	end2()
	var z *RegionSummary
	for i, s := range p.Summaries() {
		if s.Name == "assembly" {
			z = &p.Summaries()[i]
		}
	}
	if z == nil {
		t.Fatal("zone not recorded")
	}
	if z.Calls != 2 {
		t.Fatalf("zone calls = %d, want 2", z.Calls)
	}
	if z.Total < 2*time.Millisecond {
		t.Fatalf("zone total %v too small", z.Total)
	}
}

func TestReportFormat(t *testing.T) {
	p := New()
	p.Start()
	omp.Parallel(func(th *omp.Thread) {}, omp.NumThreads(2), omp.Loc("r.go", 1, "parallel"))
	p.Stop()
	rep := p.Report()
	for _, want := range []string{"%time", "region", "bar-wait", "r.go:1"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestStopDetachesHook(t *testing.T) {
	p := New()
	p.Start()
	p.Stop()
	before := len(p.Summaries())
	omp.Parallel(func(th *omp.Thread) {}, omp.NumThreads(2), omp.Loc("x.go", 9, "parallel"))
	if len(p.Summaries()) != before {
		t.Fatal("profiler still receiving events after Stop")
	}
}

// The hook must be cheap when no profiler is attached: this is a guard
// against accidentally making tracing mandatory.
func TestNoProfilerNoPanic(t *testing.T) {
	kmp.SetCollector(nil)
	omp.Parallel(func(th *omp.Thread) { omp.Barrier(th) }, omp.NumThreads(2))
}

// profiledWorkload runs an imbalanced parallel-for plus a chain of
// dependent tasks — enough activity to exercise steals, barrier waits
// and the dependence engine. Returns true if at least one steal event
// was recorded (stealing is scheduling-dependent).
func profiledWorkload(p *Profiler) bool {
	omp.Parallel(func(th *omp.Thread) {
		omp.ForRange(th, 64, func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				if i == 0 {
					time.Sleep(2 * time.Millisecond) // pin one thread, invite steals
				}
			}
		}, omp.Schedule(omp.Dynamic, 1), omp.Loc("work.go", 10, "for"))
		var x int
		if th.Tid == 0 {
			for i := 0; i < 6; i++ {
				omp.Task(th, func(*omp.Thread) { time.Sleep(100 * time.Microsecond) },
					omp.DependInOut(&x), omp.Loc("work.go", 20, "task"))
			}
			omp.Taskwait(th)
		}
		omp.Barrier(th)
	}, omp.NumThreads(4), omp.Loc("work.go", 5, "parallel"))
	p.Flush()
	return p.Metrics().LoopSteals.Value()+p.Metrics().TaskSteals.Value() > 0
}

// The acceptance-criterion test: the exported timeline must be valid
// Chrome trace-event JSON (Perfetto-loadable) with per-thread named
// tracks, spans named by the user's file:line, and steals as flow
// ("s"/"f") event pairs.
func TestTimelineExport(t *testing.T) {
	var p *Profiler
	stole := false
	for attempt := 0; attempt < 10 && !stole; attempt++ {
		p = New(WithTimeline(0))
		p.Start()
		stole = profiledWorkload(p)
		p.Stop()
	}

	var buf bytes.Buffer
	if err := p.WriteTimeline(&buf); err != nil {
		t.Fatalf("WriteTimeline: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			ID   int            `json:"id"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("timeline has no events")
	}

	var threadNames, regionSpans, loopSpans, taskSpans, flowStarts, flowEnds int
	flowIDs := map[int][2]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" && ev.Ts < 0 {
			t.Fatalf("negative timestamp: %+v", ev)
		}
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			threadNames++
		case ev.Ph == "X" && strings.Contains(ev.Name, "work.go:5"):
			regionSpans++
			if ev.Dur <= 0 {
				t.Errorf("region span without duration: %+v", ev)
			}
		case ev.Ph == "X" && strings.Contains(ev.Name, "work.go:10"):
			loopSpans++
		case ev.Ph == "X" && strings.Contains(ev.Name, "work.go:20"):
			taskSpans++
		case ev.Ph == "s":
			flowStarts++
			f := flowIDs[ev.ID]
			f[0]++
			flowIDs[ev.ID] = f
		case ev.Ph == "f":
			flowEnds++
			f := flowIDs[ev.ID]
			f[1]++
			flowIDs[ev.ID] = f
		}
	}
	if threadNames < 4 {
		t.Errorf("thread_name metadata tracks = %d, want >= 4", threadNames)
	}
	if regionSpans == 0 {
		t.Error("no region span named work.go:5")
	}
	if loopSpans == 0 {
		t.Error("no loop span named work.go:10")
	}
	if taskSpans == 0 {
		t.Error("no task span named work.go:20")
	}
	if !stole {
		t.Skip("no steal occurred in 10 attempts; flow-arrow check skipped")
	}
	if flowStarts == 0 || flowStarts != flowEnds {
		t.Fatalf("steal flow events unbalanced: %d starts, %d ends", flowStarts, flowEnds)
	}
	for id, pair := range flowIDs {
		if pair[0] != 1 || pair[1] != 1 {
			t.Fatalf("flow id %d has %d starts / %d ends, want 1/1", id, pair[0], pair[1])
		}
	}
}

func TestMetricsRegistry(t *testing.T) {
	p := New()
	p.Start()
	profiledWorkload(p)
	p.Stop()

	s := p.Metrics().Snapshot()
	if s.Forks < 1 {
		t.Errorf("forks = %d, want >= 1", s.Forks)
	}
	if s.RegionNs <= 0 {
		t.Errorf("region_ns = %d, want > 0", s.RegionNs)
	}
	if s.Barriers == 0 || s.BarrierWaitNs < 0 {
		t.Errorf("barrier metrics: %+v", s)
	}
	if s.TaskSpawns < 6 || s.TaskRuns < 6 {
		t.Errorf("task metrics: spawns=%d runs=%d, want >= 6", s.TaskSpawns, s.TaskRuns)
	}
	if s.TaskNs <= 0 {
		t.Errorf("task_ns = %d, want > 0 (bodies sleep)", s.TaskNs)
	}
	if s.DepStalls == 0 || s.DepReleases == 0 {
		t.Errorf("dependence metrics: stalls=%d releases=%d, want > 0", s.DepStalls, s.DepReleases)
	}
	if s.TaskQueuePeak < 1 {
		t.Errorf("task_queue_peak = %d, want >= 1", s.TaskQueuePeak)
	}
	if s.TaskRunHist.Count != s.TaskRuns {
		t.Errorf("task-run histogram count %d != runs %d", s.TaskRunHist.Count, s.TaskRuns)
	}

	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot not JSON-able: %v", err)
	}
	var expo strings.Builder
	if err := p.WriteOpenMetrics(&expo); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gomp_forks_total ", "gomp_barrier_wait_ns_total ", "gomp_task_runs_total ", "gomp_dep_stalls_total "} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, expo.String())
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, ns := range []int64{0, 1, 2, 3, 1000, 1 << 40} {
		h.Observe(ns)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != 6 {
		t.Fatalf("bucket counts sum to %d, want 6", total)
	}
}

// Start makes a profiler the one Default returns, whoever starts it, until
// it stops or another profiler starts; the package-level ZoneAt follows it.
func TestDefaultProfiler(t *testing.T) {
	if Default() != nil {
		t.Fatal("a profiler runs before any started")
	}
	end := ZoneAt("off.go", 1, "zone")
	end() // no-op path must not panic
	p := New()
	p.Start()
	if Default() != p {
		t.Fatal("Start did not make p the running profiler")
	}
	done := ZoneAt("on.go", 3, "compute")
	done()
	omp.Parallel(func(th *omp.Thread) {}, omp.NumThreads(2), omp.Loc("on.go", 1, "parallel"))
	q := New()
	q.Start()
	if Default() != q {
		t.Fatal("a second Start did not replace the running profiler")
	}
	p.Stop() // p no longer runs: stopping it leaves q alone
	if Default() != q {
		t.Fatal("stopping a replaced profiler detached the running one")
	}
	q.Stop()
	if Default() != nil {
		t.Fatal("Stop did not detach the running profiler")
	}
	foundZone := false
	for _, s := range p.Summaries() {
		if strings.Contains(s.Name, "on.go:3") {
			foundZone = true
		}
	}
	if !foundZone {
		t.Fatalf("running profiler missed the zone: %+v", p.Summaries())
	}
}

func TestTimelineCapTruncates(t *testing.T) {
	p := New(WithTimeline(8))
	p.Start()
	for i := 0; i < 20; i++ {
		omp.Parallel(func(th *omp.Thread) { omp.Barrier(th) }, omp.NumThreads(2), omp.Loc("t.go", 1, "parallel"))
	}
	p.Stop()
	var buf bytes.Buffer
	if err := p.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "timeline-truncated") {
		t.Error("over-capacity timeline not marked truncated")
	}
	// The retained history is bounded by the cap: at most 8 runtime
	// events survive in the export (plus metadata and the truncation
	// marker, which carry no "ts" ordering significance).
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	runtimeEvents := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" && ev.Cat != "meta" && ev.Cat != "zone" {
			runtimeEvents++
		}
	}
	if runtimeEvents > 8 {
		t.Errorf("export carries %d runtime events past cap 8", runtimeEvents)
	}
}
