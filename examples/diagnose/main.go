// Always-on diagnostics: the black-box surfaces a wedged production
// process exposes with no profiler installed, demonstrated end to end
// and self-checked. The program:
//
//  1. runs parallel regions with NO collector active and reads the
//     flight recorder — the most recent events must be there, because
//     the recorder is always on;
//  2. enables pprof region labels, parks a team inside a region and
//     scrapes its own /debug/pprof/goroutine profile — the blocked
//     worker must carry omp_region/omp_gtid labels resolving to the
//     pragma's file:line;
//  3. arms the hang watchdog (50ms threshold), then plants a real stall:
//     one thread of the region at diagnose.go:3 blocks on a channel
//     before the barrier — the watchdog must trip once, naming the
//     in-barrier teammate and the pragma location, /debug/gomp/health
//     must report it (503 under ?strict=1), and the OpenMetrics scrape
//     must show gomp_health 0 with one trip counted;
//  4. releases the channel and checks health recovers.
//
// Exit status 0 and a final "all diagnostics ok" line mean every check
// passed; CI runs this binary and greps for the stall being named.
//
//	go run ./examples/diagnose
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
		fmt.Fprintln(os.Stderr, "diagnose:", err)
		os.Exit(1)
	}
}

// get fetches base+path and fails unless the response status is want.
func get(base, path string, want int) (string, error) {
	resp, err := http.Get(base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != want {
		return "", fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return string(body), nil
}

func run(w io.Writer) error {
	// -- 1. flight recorder: history with no profiler anywhere --------
	var sink [256]float64
	for r := 0; r < 4; r++ {
		omp.Parallel(func(t *omp.Thread) {
			omp.ForRange(t, int64(len(sink)), func(lo, hi int64) {
				for i := lo; i < hi; i++ {
					sink[i] += float64(i)
				}
			})
		}, omp.NumThreads(4), omp.Loc("diagnose.go", 1, "flight smoke"))
	}
	evs := trace.FlightEvents()
	found := false
	for _, ev := range evs {
		if strings.Contains(ev.Region, "diagnose.go:1") {
			found = true
			break
		}
	}
	if len(evs) == 0 || !found {
		return fmt.Errorf("flight recorder: %d events, workload region found=%v", len(evs), found)
	}
	fmt.Fprintf(w, "flight:   ok — %d events captured with no profiler installed\n", len(evs))

	dbg, err := omp.ServeDebug("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer dbg.Close()
	base := "http://" + dbg.Addr

	// -- 2. pprof labels: a parked region shows up attributed ---------
	omp.SetProfileLabels(true)
	defer omp.SetProfileLabels(false)
	hold := make(chan struct{})
	var labelErr error
	omp.Parallel(func(t *omp.Thread) {
		if t.Tid != 0 {
			<-hold // park inside the region so the profile catches us
			return
		}
		body, err := get(base, "/debug/pprof/goroutine?debug=1", http.StatusOK)
		if err == nil {
			switch {
			case !strings.Contains(body, "omp_region"):
				err = fmt.Errorf("goroutine profile carries no omp_region label")
			case !strings.Contains(body, "diagnose.go:2"):
				err = fmt.Errorf("omp_region label does not resolve to diagnose.go:2")
			case !strings.Contains(body, "omp_gtid"):
				err = fmt.Errorf("goroutine profile carries no omp_gtid label")
			}
		}
		labelErr = err
		close(hold)
	}, omp.NumThreads(2), omp.Loc("diagnose.go", 2, "label check"))
	if labelErr != nil {
		return fmt.Errorf("pprof labels: %w", labelErr)
	}
	fmt.Fprintln(w, "labels:   ok — parked worker attributed to diagnose.go:2 in goroutine profile")

	// -- 3. watchdog vs a planted barrier stall -----------------------
	trips := make(chan *omp.HangReport, 1)
	stopWd := omp.StartWatchdogConfig(omp.WatchdogConfig{
		Threshold: 50 * time.Millisecond,
		Interval:  5 * time.Millisecond,
		OnTrip: func(r *omp.HangReport) {
			select {
			case trips <- r:
			default:
			}
		},
	})
	defer stopWd()

	stall := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		omp.Parallel(func(t *omp.Thread) {
			if t.Tid == 0 {
				<-stall // the hang: tid 0 never reaches the barrier
			}
			omp.Barrier(t)
		}, omp.NumThreads(2), omp.Loc("diagnose.go", 3, "stalled barrier"))
	}()
	var once sync.Once
	release := func() { once.Do(func() { close(stall); <-done }) }
	defer release()

	var report *omp.HangReport
	select {
	case report = <-trips:
	case <-time.After(5 * time.Second):
		return fmt.Errorf("watchdog did not trip on the stalled barrier within 5s")
	}
	text := report.String()
	if !strings.Contains(text, "in-barrier") || !strings.Contains(text, "diagnose.go:3") {
		return fmt.Errorf("trip report does not name the stalled barrier:\n%s", text)
	}
	fmt.Fprintf(w, "watchdog: ok — tripped on the stalled barrier\n%s", indent(text))

	body, err := get(base, "/debug/gomp/health?strict=1", http.StatusServiceUnavailable)
	if err != nil {
		return err
	}
	var h struct {
		Healthy bool              `json:"healthy"`
		Stuck   []json.RawMessage `json:"stuck_workers"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil || h.Healthy || len(h.Stuck) == 0 {
		return fmt.Errorf("/debug/gomp/health does not report the stall: err=%v body=%s", err, body)
	}
	if !strings.Contains(body, "diagnose.go:3") {
		return fmt.Errorf("/debug/gomp/health does not name the stalled region: %s", body)
	}
	fmt.Fprintln(w, "health:   ok — /debug/gomp/health?strict=1 answers 503 naming the stalled region")

	body, err = get(base, "/debug/gomp/metrics", http.StatusOK)
	if err != nil {
		return err
	}
	if !strings.Contains(body, "gomp_health 0") || !strings.Contains(body, "gomp_watchdog_trips_total 1") {
		return fmt.Errorf("OpenMetrics scrape missing health metrics:\n%s", body)
	}
	fmt.Fprintln(w, "metrics:  ok — gomp_health 0, gomp_watchdog_trips_total 1 while stalled")

	// -- 4. recovery ---------------------------------------------------
	release()
	deadline := time.Now().Add(5 * time.Second)
	for !omp.ReadHealth().Healthy {
		if time.Now().After(deadline) {
			return fmt.Errorf("health did not recover after the stall was released")
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Fprintln(w, "recovery: ok — healthy again after the stall was released")

	fmt.Fprintln(w, "all diagnostics ok")
	return nil
}

func indent(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	return b.String()
}
