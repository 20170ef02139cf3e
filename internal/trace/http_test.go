package trace_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gomp/internal/kmp"
	. "gomp/internal/trace"
	"gomp/omp"
)

// spinWork burns ~n units of floating-point work.
func spinWork(n int64) float64 {
	s := 1.0
	for i := int64(0); i < n; i++ {
		s += 1.0 / float64(2*i+1)
	}
	return s
}

// runContrastLoops drives one balanced and one triangular static loop
// through reps regions each, on four threads.
func runContrastLoops(reps int) {
	var sink [1 << 8]float64
	for r := 0; r < reps; r++ {
		omp.Parallel(func(t *omp.Thread) {
			omp.ForRange(t, int64(len(sink)), func(lo, hi int64) {
				for i := lo; i < hi; i++ {
					sink[i] += spinWork(512)
				}
			})
		}, omp.NumThreads(4), omp.Loc("skew.go", 1, "balanced"))
		omp.Parallel(func(t *omp.Thread) {
			omp.ForRange(t, int64(len(sink)), func(lo, hi int64) {
				for i := lo; i < hi; i++ {
					sink[i] += spinWork(4 * i) // triangular skew
				}
			})
		}, omp.NumThreads(4), omp.Loc("skew.go", 2, "triangular"))
	}
}

// The analysis layer must separate a deliberately skewed static loop
// from a balanced one: higher imbalance, higher what-if speedup, and
// the straggler named.
func TestAnalysesSkewVsBalanced(t *testing.T) {
	p := New()
	p.Start()
	runContrastLoops(20)
	p.Stop()

	rows := p.Analyses()
	var skew, bal *RegionAnalysis
	for i := range rows {
		switch {
		case strings.Contains(rows[i].Name, "triangular"):
			skew = &rows[i]
		case strings.Contains(rows[i].Name, "balanced"):
			bal = &rows[i]
		}
	}
	if skew == nil || bal == nil {
		t.Fatalf("missing analysis rows: %+v", rows)
	}
	// Per-worker busy is wall-clock span, so on a host with fewer CPUs
	// than team members a "balanced" loop's spans are dominated by who
	// got descheduled (worse still with active spin-waiters burning the
	// one core) — the skew-vs-balanced ordering only means something
	// with real parallelism. The absolute checks below hold regardless.
	if runtime.NumCPU() >= 4 && skew.Imbalance <= bal.Imbalance {
		t.Errorf("triangular imbalance %.3f <= balanced %.3f", skew.Imbalance, bal.Imbalance)
	}
	// Four-thread triangular static block partition: imbalance ~0.75
	// in theory; demand a clear margin over balanced noise.
	if skew.Imbalance < 0.3 {
		t.Errorf("triangular imbalance %.3f suspiciously low", skew.Imbalance)
	}
	if skew.WhatIfSpeedup <= 1.0 {
		t.Errorf("triangular what-if speedup %.3f <= 1", skew.WhatIfSpeedup)
	}
	if skew.Workers != 4 {
		t.Errorf("triangular workers = %d, want 4", skew.Workers)
	}
	if skew.BlameNs <= 0 {
		t.Errorf("triangular blame = %d, want > 0", skew.BlameNs)
	}
	// The report must carry the analysis section and name the regions.
	rep := p.Report()
	if !strings.Contains(rep, "load imbalance") || !strings.Contains(rep, "triangular") {
		t.Errorf("report missing analysis section:\n%s", rep)
	}
}

// Ground truth for the blame analysis: in a 2-thread static loop one known
// thread does D of extra work. Analyses must name that thread and put the
// busy gap near D, with the master as the straggler too: its span starts
// after it has published the region, so the fork does not count as work.
func TestAnalysesNamesPlantedStraggler(t *testing.T) {
	// Busy time is a wall-clock span: on one processor the two threads
	// take turns, and whoever is preempted mid-span is charged the other's
	// time.
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two threads running at once")
	}
	const d = 2 * time.Millisecond
	plant := func(straggler int) (gtid int, row RegionAnalysis) {
		p := New()
		p.Start()
		omp.Parallel(func(th *omp.Thread) {
			omp.ForRange(th, 2, func(lo, hi int64) {
				if th.Tid == straggler {
					gtid = th.Gtid
					for start := time.Now(); time.Since(start) < d; {
					}
				}
			})
		}, omp.NumThreads(2), omp.Loc("straggler.go", 1, "planted"))
		p.Stop()
		rows := p.Analyses()
		for _, r := range rows {
			if strings.Contains(r.Name, "straggler.go:1") {
				return gtid, r
			}
		}
		t.Fatalf("tid %d: no analysis row for the planted region: %+v", straggler, rows)
		return
	}
	for _, straggler := range []int{0, 1} {
		// A busy host can preempt a thread inside its span and stretch it;
		// the planted answer must come out within a few tries.
		var msg string
		for try := 0; try < 5; try++ {
			gtid, row := plant(straggler)
			gap := time.Duration(row.MaxBusyNs - row.MinBusyNs)
			if row.BlameGtid == gtid && gap >= d*8/10 && gap <= 2*d {
				msg = ""
				break
			}
			msg = fmt.Sprintf("tid %d: blamed g%d (straggler g%d), max-min busy %v; want the straggler and a gap within [%v, %v] of the planted %v",
				straggler, row.BlameGtid, gtid, gap, d*8/10, 2*d, d)
		}
		if msg != "" {
			t.Error(msg)
		}
	}
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// Every endpoint of the suite must serve correct output against a
// running profiler with accumulated history.
func TestHTTPEndpoints(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	p := New()
	p.Start()
	defer p.Stop()
	runContrastLoops(10)

	// Index lists the endpoints; unknown paths 404.
	code, _, body := get(t, srv, "/")
	if code != 200 || !strings.Contains(body, "regions") {
		t.Errorf("index: code %d body %q", code, body)
	}
	if code, _, _ := get(t, srv, "/nonsense"); code != 404 {
		t.Errorf("unknown path served %d, want 404", code)
	}

	// /status: valid JSON with the snapshot's top-level fields.
	code, ctype, body := get(t, srv, "/status")
	if code != 200 || !strings.Contains(ctype, "application/json") {
		t.Errorf("/status: code %d content-type %q", code, ctype)
	}
	var status struct {
		Teams       []json.RawMessage `json:"teams"`
		GtidsIssued int64             `json:"gtids_issued"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Errorf("/status: invalid JSON: %v", err)
	}
	if status.GtidsIssued < 1 {
		t.Errorf("/status: gtids_issued = %d after forking", status.GtidsIssued)
	}

	// /health: the runtime's self-diagnosis, healthy under normal load.
	code, ctype, body = get(t, srv, "/health")
	if code != 200 || !strings.Contains(ctype, "application/json") {
		t.Errorf("/health: code %d content-type %q", code, ctype)
	}
	var health struct {
		Healthy        bool `json:"healthy"`
		FlightRecorder bool `json:"flight_recorder"`
		ProfilerActive bool `json:"profiler_active"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Errorf("/health: invalid JSON: %v", err)
	}
	if !health.Healthy || !health.ProfilerActive {
		t.Errorf("/health: healthy=%v profiler_active=%v, want true/true", health.Healthy, health.ProfilerActive)
	}

	// /flight: always-on event history; the loops above must appear.
	code, _, body = get(t, srv, "/flight")
	var flight []FlightEvent
	if err := json.Unmarshal([]byte(body), &flight); err != nil {
		t.Errorf("/flight: invalid JSON: %v", err)
	}
	if code != 200 || len(flight) == 0 {
		t.Errorf("/flight: code %d, %d events, want history", code, len(flight))
	}

	// /metrics: OpenMetrics exposition fed by the live registry.
	code, ctype, body = get(t, srv, "/metrics")
	if code != 200 || ctype != OpenMetricsContentType {
		t.Errorf("/metrics: code %d content-type %q", code, ctype)
	}
	if !strings.Contains(body, "gomp_forks_total ") || !strings.HasSuffix(body, "# EOF\n") {
		t.Errorf("/metrics: malformed exposition:\n%s", body)
	}
	if !strings.Contains(body, "gomp_profiler_active 1") {
		t.Errorf("/metrics: profiler active gauge wrong:\n%s", body)
	}
	if !strings.Contains(body, "gomp_health 1") || !strings.Contains(body, "gomp_watchdog_trips_total ") {
		t.Errorf("/metrics: health metrics missing:\n%s", body)
	}

	// /regions without ?seconds reads the running profiler's history.
	code, _, body = get(t, srv, "/regions")
	if code != 200 {
		t.Errorf("/regions: code %d", code)
	}
	var rows []RegionAnalysis
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatalf("/regions: invalid JSON: %v\n%s", err, body)
	}
	if len(rows) < 2 {
		t.Fatalf("/regions: %d rows, want >= 2:\n%s", len(rows), body)
	}

	// Windowed capture endpoints: drive load during the window.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				runContrastLoops(1)
			}
		}
	}()

	code, _, body = get(t, srv, "/profile?seconds=0.05")
	if code != 200 || !strings.Contains(body, "skew.go") {
		t.Errorf("/profile: code %d, report misses live region:\n%s", code, body)
	}
	code, _, body = get(t, srv, "/timeline?seconds=0.05")
	if code != 200 || !json.Valid([]byte(body)) {
		t.Errorf("/timeline: code %d, invalid JSON", code)
	}
	close(stop)
	wg.Wait()

	// The windowed captures read beside the running profiler, which
	// keeps folding fresh forks into its aggregates after them.
	before := p.Metrics().Forks.Value()
	runContrastLoops(2)
	p.Flush()
	if after := p.Metrics().Forks.Value(); after <= before {
		t.Errorf("running profiler lost the stream after capture: forks %d -> %d", before, after)
	}
}

// A capture window reads beside the running profiler: while one goroutine
// forks two-thread regions back to back, a /profile window counts some of
// them, the running profiler keeps every one with no ring drop, and a zone
// closed in the window lands in both. Throughout the window the started
// profiler stays the running one.
func TestCaptureWindowReadsBesideRunningProfiler(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	p := New()
	p.Start()
	defer p.Stop()
	if !ReadHealth().ProfilerActive {
		t.Error("ReadHealth().ProfilerActive = false while a started profiler runs")
	}

	// Each iteration forks one region inside one zone.
	var forks int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			end := ZoneAt("beside.go", 3, "zone")
			omp.Parallel(func(th *omp.Thread) {}, omp.NumThreads(2), omp.Loc("beside.go", 1, "parallel"))
			end()
			forks++
		}
	}()
	// Poll the running profiler and /metrics for as long as the window is open.
	windowDone, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-windowDone:
				return
			default:
			}
			if Default() != p {
				t.Error("Default() is not the started profiler during the window")
				return
			}
			// Not get: t.Fatalf must not run off the test's goroutine.
			resp, err := srv.Client().Get(srv.URL + "/metrics")
			if err != nil {
				t.Errorf("GET /metrics during the window: %v", err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if !strings.Contains(string(body), "gomp_profiler_active 1\n") {
				t.Errorf("/metrics during the window:\n%s", body)
				return
			}
		}
	}()
	code, _, report := get(t, srv, "/profile?seconds=0.2")
	close(windowDone)
	<-polled
	close(stop)
	<-done
	if code != 200 {
		t.Fatalf("/profile: code %d", code)
	}

	p.Flush()
	if got := p.Metrics().Forks.Value(); got != forks {
		t.Errorf("running profiler counts %d forks, the goroutine completed %d", got, forks)
	}
	if drops := p.Metrics().RingDrops.Value(); drops != 0 {
		t.Errorf("running profiler counts %d ring drops", drops)
	}
	zoneCalls := int64(0)
	for _, s := range p.Summaries() {
		if strings.HasPrefix(s.Name, "beside.go:3") {
			zoneCalls = s.Calls
		}
	}
	if zoneCalls != forks {
		t.Errorf("running profiler counts %d zones, the goroutine closed %d", zoneCalls, forks)
	}

	// The window's report: one row per location, calls in the third column.
	windowCalls := func(loc string) int64 {
		for _, line := range strings.Split(report, "\n") {
			if f := strings.Fields(line); len(f) > 10 && strings.HasPrefix(f[10], loc) {
				n, err := strconv.ParseInt(f[2], 10, 64)
				if err != nil {
					t.Fatalf("report row %q: %v", line, err)
				}
				return n
			}
		}
		return 0
	}
	if n := windowCalls("beside.go:1"); n <= 0 || n > forks {
		t.Errorf("window counts %d of the %d forks, want more than 0 and no more than all:\n%s", n, forks, report)
	}
	if n := windowCalls("beside.go:3"); n <= 0 || n > forks {
		t.Errorf("window counts %d of the %d zones, want more than 0 and no more than all:\n%s", n, forks, report)
	}
}

// Profilers started and stopped on several goroutines while capture windows
// open and close must leave, once all have stopped, no profiler running and
// no collector installed: a window that started its own profiler stops
// only that one, and a window reading beside a profiler that stops
// meanwhile leaves it stopped.
func TestStartStopDuringCaptures(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p := New()
				p.Start()
				omp.Parallel(func(*omp.Thread) {}, omp.NumThreads(2))
				p.Stop()
			}
		}()
	}
	for i := 0; i < 5; i++ {
		if code, _, _ := get(t, srv, "/profile?seconds=0.01"); code != 200 {
			t.Errorf("/profile: code %d", code)
		}
	}
	wg.Wait()
	if Default() != nil || kmp.ActiveCollector() != nil {
		t.Fatalf("after every profiler stopped: Default() = %p, collector installed = %v", Default(), kmp.ActiveCollector() != nil)
	}
}

// A capture window must honour request cancellation instead of holding
// the capture lock for the full requested duration.
func TestCaptureWindowCancel(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/profile?seconds=30", nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := srv.Client().Do(req)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled 30s capture took %v", elapsed)
	}
}

// Scraping every always-on endpoint concurrently with fork/steal/
// cancel/trim churn must be race-free (run under -race in CI) and
// never corrupt the exposition.
func TestScrapeDuringChurn(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	p := New()
	p.Start()
	defer p.Stop()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sink [64]float64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				omp.Parallel(func(t *omp.Thread) {
					omp.ForRange(t, 64, func(lo, hi int64) {
						for j := lo; j < hi; j++ {
							sink[j] += spinWork(j * 8)
						}
					}, omp.Schedule(omp.Dynamic, 4))
					omp.Barrier(t)
				}, omp.NumThreads(1+i%4), omp.Loc("churn.go", g, "parallel churn"))
			}
		}(g)
	}
	// A fourth goroutine cancels its regions mid-loop and periodically
	// trims the hot-team pool, so the scrapes race against team
	// teardown and state-word churn, not just steady forking.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var sink [64]float64
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			omp.Parallel(func(t *omp.Thread) {
				omp.ForRange(t, 64, func(lo, hi int64) {
					if lo == 0 {
						omp.Cancel(t, omp.CancelFor)
					}
					for j := lo; j < hi; j++ {
						if omp.CancellationPoint(t, omp.CancelFor) {
							return
						}
						sink[j] += spinWork(j * 4)
					}
				}, omp.Schedule(omp.Dynamic, 4))
			}, omp.NumThreads(2+i%3), omp.Loc("churn.go", 99, "cancel churn"))
			if i%8 == 0 {
				omp.TrimTeams()
			}
		}
	}()

	deadline := time.After(300 * time.Millisecond)
scrape:
	for {
		select {
		case <-deadline:
			break scrape
		default:
		}
		if code, _, body := get(t, srv, "/status"); code != 200 || !json.Valid([]byte(body)) {
			t.Errorf("/status under churn: code %d", code)
			break scrape
		}
		if code, _, body := get(t, srv, "/metrics"); code != 200 || !strings.HasSuffix(body, "# EOF\n") {
			t.Errorf("/metrics under churn: code %d", code)
			break scrape
		}
		if code, _, body := get(t, srv, "/health"); code != 200 || !json.Valid([]byte(body)) {
			t.Errorf("/health under churn: code %d", code)
			break scrape
		}
		if code, _, body := get(t, srv, "/flight"); code != 200 || !json.Valid([]byte(body)) {
			t.Errorf("/flight under churn: code %d", code)
			break scrape
		}
	}
	close(stop)
	wg.Wait()
}
