package trace_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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

// Every endpoint of the suite must serve correct output against a live
// default profiler with accumulated history.
func TestHTTPEndpoints(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	p := Enable()
	defer Disable()
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
	_, _, ftext := get(t, srv, "/flight?format=text")
	if !strings.Contains(ftext, "flight recorder") {
		t.Errorf("/flight?format=text: %q", ftext)
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

	// /regions without ?seconds reads the default profiler's history.
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
	_, _, text := get(t, srv, "/regions?format=text")
	if !strings.Contains(text, "imbalance") {
		t.Errorf("/regions?format=text: %q", text)
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

	// The windowed captures must have handed the event stream back to
	// the default profiler: fresh forks keep landing in its aggregates.
	before := p.Metrics().Forks.Value()
	runContrastLoops(2)
	p.Flush()
	if after := p.Metrics().Forks.Value(); after <= before {
		t.Errorf("default profiler lost the stream after capture: forks %d -> %d", before, after)
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

	Enable()
	defer Disable()

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
