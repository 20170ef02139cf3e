// Live monitoring: a serving workload inspected over HTTP while it
// runs. The program starts the runtime profiler, mounts the
// /debug/gomp endpoint suite on an ephemeral port (omp.ServeDebug),
// drives two contrasting parallel regions in the background — a
// balanced sweep and a deliberately skewed triangular loop under
// schedule(static) — and then scrapes its own endpoints like a
// monitoring system would:
//
//   - /debug/gomp/status   live teams and per-worker states (JSON)
//   - /debug/gomp/metrics  OpenMetrics text, Prometheus-scrapeable
//   - /debug/gomp/profile  a fresh capture window, text report
//   - /debug/gomp/timeline a fresh capture window, Chrome trace JSON
//   - /debug/gomp/regions  per-region imbalance and blame analysis (JSON)
//
// The final check is the one that matters: /regions must report a
// clearly higher load imbalance for the skewed loop than for the
// balanced one, with the straggler's gtid named — the "which region is
// wasting cores and why" answer, extracted from a live process without
// stopping it.
//
//	go run ./examples/monitor
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"gomp/internal/trace"
	"gomp/omp"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "monitor:", err)
		os.Exit(1)
	}
}

// spin burns ~n units of floating-point work; the compiler cannot fold
// it away because the result feeds a live sink.
func spin(n int64) float64 {
	s := 1.0
	for i := int64(0); i < n; i++ {
		s += 1.0 / float64(2*i+1)
	}
	return s
}

// workload alternates a balanced and a skewed region until stop closes.
// Both are schedule(static) over the same trip count and the same total
// work on four threads; in the skewed one an iteration's cost falls with
// its index, so the master, owning the first block, is the straggler every
// time. Busy time is a wall-clock span, and on a host with fewer CPUs than
// threads the master's span comes out longest even in the balanced sweep
// (it runs while the team wakes up). Putting the heavy block on the master
// keeps that bias from closing the gap between the two loops, and blocks
// of milliseconds keep per-region costs small beside the work.
func workload(stop <-chan struct{}, sink []float64) {
	const trip = int64(1 << 10)
	for {
		select {
		case <-stop:
			return
		default:
		}
		omp.Parallel(func(t *omp.Thread) {
			omp.ForRange(t, trip, func(lo, hi int64) {
				for i := lo; i < hi; i++ {
					sink[i] += spin(4096)
				}
			})
		}, omp.NumThreads(4), omp.Loc("monitor.go", 1, "balanced sweep"))
		omp.Parallel(func(t *omp.Thread) {
			omp.ForRange(t, trip, func(lo, hi int64) {
				for i := lo; i < hi; i++ {
					sink[i] += spin(8 * (trip - 1 - i)) // triangular: cost falls with i
				}
			})
		}, omp.NumThreads(4), omp.Loc("monitor.go", 2, "skewed triangular"))
	}
}

func get(base, path string) (string, error) {
	resp, err := http.Get(base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return string(body), nil
}

func run(w io.Writer) error {
	p := trace.New()
	p.Start()
	defer p.Stop()

	dbg, err := omp.ServeDebug("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer dbg.Close()
	fmt.Fprintf(w, "serving http://%s/debug/gomp/\n", dbg.Addr)
	base := "http://" + dbg.Addr + "/debug/gomp"

	stop := make(chan struct{})
	var wg sync.WaitGroup
	sink := make([]float64, 1<<10)
	wg.Add(1)
	go func() { defer wg.Done(); workload(stop, sink) }()
	defer wg.Wait()
	defer close(stop)
	time.Sleep(300 * time.Millisecond) // let region history accumulate

	// /status: live worker states, valid JSON with at least one team.
	body, err := get(base, "/status")
	if err != nil {
		return err
	}
	var status struct {
		Teams []struct {
			Region  string `json:"region"`
			Size    int    `json:"size"`
			Workers []struct {
				Gtid  int    `json:"gtid"`
				State string `json:"state"`
			} `json:"workers"`
		} `json:"teams"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		return fmt.Errorf("/status: invalid JSON: %w", err)
	}
	if len(status.Teams) == 0 {
		return fmt.Errorf("/status: no live teams while the workload runs")
	}
	fmt.Fprintf(w, "status:   ok — %d team(s), first region %q size %d\n",
		len(status.Teams), status.Teams[0].Region, status.Teams[0].Size)

	// /metrics: OpenMetrics exposition with counters and a terminator.
	body, err = get(base, "/metrics")
	if err != nil {
		return err
	}
	switch {
	case !strings.Contains(body, "gomp_forks_total "):
		return fmt.Errorf("/metrics: missing gomp_forks_total")
	case !strings.HasSuffix(strings.TrimRight(body, "\n")+"\n", "# EOF\n"):
		return fmt.Errorf("/metrics: missing # EOF terminator")
	}
	fmt.Fprintf(w, "metrics:  ok — %d bytes of OpenMetrics text\n", len(body))

	// /timeline: a 200ms capture window, Chrome trace-event JSON.
	body, err = get(base, "/timeline?seconds=0.2")
	if err != nil {
		return err
	}
	if !json.Valid([]byte(body)) {
		return fmt.Errorf("/timeline: invalid JSON")
	}
	fmt.Fprintf(w, "timeline: ok — %d bytes of trace-event JSON\n", len(body))

	// /profile: a 200ms capture window, text report.
	body, err = get(base, "/profile?seconds=0.2")
	if err != nil {
		return err
	}
	if !strings.Contains(body, "monitor.go") {
		return fmt.Errorf("/profile: report mentions no workload region:\n%s", body)
	}
	fmt.Fprintf(w, "profile:  ok — windowed report covers the live regions\n")

	// /regions: the imbalance analysis must separate the two loops.
	body, err = get(base, "/regions")
	if err != nil {
		return err
	}
	var rows []trace.RegionAnalysis
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		return fmt.Errorf("/regions: invalid JSON: %w", err)
	}
	var skew, bal *trace.RegionAnalysis
	for i := range rows {
		switch {
		case strings.Contains(rows[i].Name, "skewed"):
			skew = &rows[i]
		case strings.Contains(rows[i].Name, "balanced"):
			bal = &rows[i]
		}
	}
	if skew == nil || bal == nil {
		return fmt.Errorf("/regions: missing workload rows in %s", body)
	}
	if skew.Imbalance <= bal.Imbalance {
		return fmt.Errorf("/regions: skewed loop imbalance %.3f not above balanced %.3f",
			skew.Imbalance, bal.Imbalance)
	}
	fmt.Fprintln(w, "regions:")
	for _, a := range []*trace.RegionAnalysis{skew, bal} {
		fmt.Fprintf(w, "  %-30s imbalance %5.2f  blame g%d (%.1fms idle caused)  what-if %.2fx\n",
			a.Name, a.Imbalance, a.BlameGtid,
			float64(a.BlameNs)/1e6, a.WhatIfSpeedup)
	}
	fmt.Fprintln(w, "all endpoints ok")
	return nil
}
