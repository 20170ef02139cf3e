package trace

import (
	"fmt"
	"io"
	"strings"

	"gomp/internal/kmp"
)

// OpenMetrics/Prometheus text exposition of the metrics registry: the
// /debug/gomp/metrics endpoint. The format is the OpenMetrics 1.0 text
// form (a strict superset of the Prometheus exposition format), so the
// output scrapes cleanly with either parser: `# TYPE`/`# HELP` metadata
// per family, `_total` sample suffix on counters, cumulative histogram
// buckets ending in `+Inf`, escaped label values, and a terminating
// `# EOF` line.

// OpenMetricsContentType is the Content-Type the /metrics endpoint
// serves, negotiable down to plain Prometheus text by any scraper.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// overflowLe is the le label of the histogram's top bucket, which holds
// every observation of 33 bits or more; its upper bound is unbounded,
// so exposition folds it into +Inf instead of emitting a false bound.
const overflowLe = int64(1)<<(histBuckets-1) - 1

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote and newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// expoWriter accumulates one exposition; families are emitted whole
// (metadata then samples) in registry order.
type expoWriter struct{ b strings.Builder }

func (e *expoWriter) meta(name, typ, help string) {
	fmt.Fprintf(&e.b, "# TYPE %s %s\n# HELP %s %s\n", name, typ, name, help)
}

func (e *expoWriter) counter(name, help string, v int64) {
	e.meta(name, "counter", help)
	fmt.Fprintf(&e.b, "%s_total %d\n", name, v)
}

func (e *expoWriter) gauge(name, help string, v int64) {
	e.meta(name, "gauge", help)
	fmt.Fprintf(&e.b, "%s %d\n", name, v)
}

func (e *expoWriter) histogram(name, help string, h HistSnapshot) {
	e.meta(name, "histogram", help)
	cum := int64(0)
	for _, bkt := range h.Buckets {
		if bkt.LeNs >= overflowLe {
			break // unbounded top bucket: counted by +Inf only
		}
		cum += bkt.Count
		fmt.Fprintf(&e.b, "%s_bucket{le=\"%d\"} %d\n", name, bkt.LeNs, cum)
	}
	fmt.Fprintf(&e.b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(&e.b, "%s_sum %d\n", name, h.SumNs)
	fmt.Fprintf(&e.b, "%s_count %d\n", name, h.Count)
}

// WriteOpenMetrics renders the profiler's registry, per-region busy
// time and imbalance analysis in OpenMetrics text format.
func (p *Profiler) WriteOpenMetrics(w io.Writer) error {
	snap := p.Metrics().Snapshot()
	return writeExposition(w, &snap, p.Summaries(), p.Analyses(), Default() == p)
}

// WriteOpenMetrics renders the running profiler's registry. When none
// runs it still writes a valid exposition — a single
// gomp_profiler_active 0 gauge — so a scrape target never 500s just
// because tracing is off.
func WriteOpenMetrics(w io.Writer) error {
	if p := Default(); p != nil {
		return p.WriteOpenMetrics(w)
	}
	return writeExposition(w, nil, nil, nil, false)
}

func writeExposition(w io.Writer, s *MetricsSnapshot, sums []RegionSummary, analyses []RegionAnalysis, active bool) error {
	var e expoWriter
	act := int64(0)
	if active {
		act = 1
	}
	e.gauge("gomp_profiler_active", "Whether the profiler reported here is running and collecting.", act)
	if s != nil {
		e.counter("gomp_forks", "Parallel regions forked and joined.", s.Forks)
		e.counter("gomp_region_ns", "Summed parallel-region wall time in nanoseconds.", s.RegionNs)
		e.counter("gomp_barriers", "Explicit barrier arrivals.", s.Barriers)
		e.counter("gomp_barrier_wait_ns", "Summed barrier wait time in nanoseconds, including task drain.", s.BarrierWaitNs)
		e.counter("gomp_loop_inits", "Dynamic-loop initialisations, one per participating thread.", s.LoopInits)
		e.counter("gomp_loop_ns", "Summed per-thread loop participation time in nanoseconds.", s.LoopNs)
		e.counter("gomp_loop_steals", "Iteration-range steals between threads.", s.LoopSteals)
		e.counter("gomp_stolen_iters", "Loop iterations transferred by steals.", s.StolenIters)
		e.counter("gomp_task_spawns", "Deferred explicit tasks created.", s.TaskSpawns)
		e.counter("gomp_task_runs", "Deferred explicit tasks completed.", s.TaskRuns)
		e.counter("gomp_task_ns", "Summed task body time in nanoseconds.", s.TaskNs)
		e.counter("gomp_task_steals", "Tasks stolen from a teammate's deque.", s.TaskSteals)
		e.counter("gomp_taskgroups", "Taskgroup regions completed.", s.Taskgroups)
		e.counter("gomp_taskloops", "Taskloop constructs executed.", s.Taskloops)
		e.counter("gomp_dep_stalls", "Tasks withheld on unresolved dependences.", s.DepStalls)
		e.counter("gomp_dep_releases", "Successor tasks made ready by completions.", s.DepReleases)
		e.counter("gomp_cancels", "Cancel-directive encounters.", s.Cancels)
		e.counter("gomp_trace_dropped_events", "Trace events lost to full per-thread rings; nonzero means counts undercount activity.", s.RingDrops)
		e.gauge("gomp_task_queue_peak", "High-water mark of spawned-but-not-yet-run deferred tasks.", s.TaskQueuePeak)
		e.histogram("gomp_barrier_wait_hist_ns", "Distribution of per-arrival barrier wait in nanoseconds.", s.BarrierWait)
		e.histogram("gomp_task_run_hist_ns", "Distribution of task body time in nanoseconds.", s.TaskRunHist)
	}
	if len(sums) > 0 {
		e.meta("gomp_region_busy_ns", "counter", "Per-region busy time (loop participation plus task bodies) in nanoseconds.")
		for _, r := range sums {
			busy := int64(r.LoopTime) + int64(r.TaskTime)
			fmt.Fprintf(&e.b, "gomp_region_busy_ns_total{region=\"%s\"} %d\n", escapeLabel(r.Name), busy)
		}
	}
	if len(analyses) > 0 {
		e.meta("gomp_region_imbalance", "gauge", "Per-region load imbalance: (max-mean)/mean per-worker busy time.")
		for _, a := range analyses {
			fmt.Fprintf(&e.b, "gomp_region_imbalance{region=\"%s\"} %g\n", escapeLabel(a.Name), a.Imbalance)
		}
	}
	// Health is exposed unconditionally, profiler or not: the watchdog
	// and flight recorder are always-on subsystems, and an alert on
	// gomp_health == 0 or a gomp_watchdog_trips_total increase must fire
	// even when nobody is profiling.
	h := kmp.ReadHealth()
	healthy := int64(0)
	if h.Healthy {
		healthy = 1
	}
	e.gauge("gomp_health", "Runtime self-diagnosis: 1 healthy, 0 when workers are stuck past the watchdog threshold.", healthy)
	e.counter("gomp_watchdog_trips", "Hang-watchdog trip episodes since process start.", int64(h.WatchdogTrips))
	e.b.WriteString("# EOF\n")
	_, err := io.WriteString(w, e.b.String())
	return err
}
