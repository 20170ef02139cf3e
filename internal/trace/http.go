package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"gomp/internal/kmp"
)

// The /debug/gomp HTTP surface: live production observability without
// stopping the workload. Handler serves seven endpoints — its index page
// lists them, and "Live monitoring" in package omp documents them — each
// report in one rendering: JSON for /status, /health, /flight and
// /regions, OpenMetrics text for /metrics, the text Report for /profile
// and Chrome trace-event JSON for /timeline.
//
// Sampling /status reads only the atomic mirrors the runtime maintains
// on its normal paths, so scraping never stops the world and never
// perturbs the zero-allocation fork fast path.

// captureMu serialises windowed captures, so the running profiler feeds
// one window at a time.
var captureMu sync.Mutex

// captureWindow records window d (or until ctx is done) into a fresh
// profiler. While a profiler runs, the fresh one reads beside it as its
// tap, and the running profiler keeps every event; only when none runs
// does the window start and stop its own. The returned profiler is
// drained and ready for Report/WriteTimeline.
func captureWindow(ctx context.Context, d time.Duration, opts ...Option) *Profiler {
	captureMu.Lock()
	defer captureMu.Unlock()
	w := New(opts...)
	runMu.Lock()
	host := running.Load()
	if host == nil {
		w.install()
	}
	runMu.Unlock()
	if host == nil {
		defer w.Stop()
	} else {
		host.setTap(w)
		defer host.setTap(nil)
	}
	select {
	case <-time.After(d):
	case <-ctx.Done():
	}
	return w
}

// seconds parses the request's ?seconds=N (float, default def), clamped
// to [10ms, 60s] so a typo cannot wedge the capture lock for an hour.
func seconds(r *http.Request, def float64) time.Duration {
	s := def
	if q := r.URL.Query().Get("seconds"); q != "" {
		if v, err := strconv.ParseFloat(q, 64); err == nil {
			s = v
		}
	}
	if s > 60 {
		s = 60
	}
	d := time.Duration(s * float64(time.Second))
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	return d
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Handler returns the /debug/gomp endpoint suite rooted at "/". Mount
// it under a prefix with http.StripPrefix, or use omp.ServeDebug /
// GOMP_DEBUG_ADDR which do the mounting and serving.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", serveIndex)
	mux.HandleFunc("/status", serveStatus)
	mux.HandleFunc("/health", serveHealth)
	mux.HandleFunc("/flight", serveFlight)
	mux.HandleFunc("/metrics", serveMetrics)
	mux.HandleFunc("/profile", serveProfile)
	mux.HandleFunc("/timeline", serveTimeline)
	mux.HandleFunc("/regions", serveRegions)
	return mux
}

func serveIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `gomp runtime debug surface

  status              live teams and per-worker states (JSON)
  health              watchdog/stuck-worker self-diagnosis (JSON)
  flight              flight-recorder event history (always on, JSON); a
                      run of back-to-back regions is one folded record
  metrics             registry in OpenMetrics text format
  profile?seconds=N   capture a window, return the text report
  timeline?seconds=N  capture a window, return Chrome trace JSON
  regions[?seconds=N] per-region imbalance and blame analysis (JSON)
`)
}

// serveStatus snapshots the runtime's live team/worker state from the
// sampler-visible atomics — no locks shared with the fork path, no
// stop-the-world.
func serveStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, kmp.ReadStatus())
}

// serveHealth reports the runtime's self-diagnosis: watchdog state and
// the workers its last sweep found stuck past the threshold. A scrape of
// a hung process is exactly when this must work, so it reads only
// sampler-visible atomics.
func serveHealth(w http.ResponseWriter, r *http.Request) {
	h := ReadHealth()
	// Unhealthy still answers 200 — the scrape succeeded and the payload
	// carries the verdict. Probes wanting a hard signal pass ?strict=1,
	// which turns unhealthy into 503 (the header must precede the body).
	if !h.Healthy && r.URL.Query().Get("strict") != "" {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, h)
}

// serveFlight dumps the flight recorder: the always-on per-thread rings
// of most recent events, merged and time-ordered. No capture window, no
// profiler needed — the history already exists.
func serveFlight(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, FlightEvents())
}

// serveMetrics renders the running profiler's registry; with none
// running it still serves a valid exposition reporting
// gomp_profiler_active 0.
func serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", OpenMetricsContentType)
	WriteOpenMetrics(w)
}

func serveProfile(w http.ResponseWriter, r *http.Request) {
	p := captureWindow(r.Context(), seconds(r, 1))
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, p.Report())
}

func serveTimeline(w http.ResponseWriter, r *http.Request) {
	p := captureWindow(r.Context(), seconds(r, 1), WithTimeline(1<<20))
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Disposition", `attachment; filename="gomp-timeline.json"`)
	p.WriteTimeline(w)
}

// serveRegions reports imbalance/blame rows. Without ?seconds it reads
// the running profiler's whole accumulated history (free — no capture);
// with ?seconds=N, or when no profiler runs, it captures a fresh
// window so the answer reflects what the workload is doing now.
func serveRegions(w http.ResponseWriter, r *http.Request) {
	p := Default()
	if p == nil || r.URL.Query().Get("seconds") != "" {
		p = captureWindow(r.Context(), seconds(r, 1))
	}
	rows := p.Analyses()
	if rows == nil {
		rows = []RegionAnalysis{}
	}
	writeJSON(w, rows)
}
