package omp

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"gomp/internal/kmp"
	"gomp/internal/trace"
)

// Always-on diagnostics: the black-box flight recorder, the hang
// watchdog and pprof region labelling, surfaced for user programs.
// Everything here works with no profiler installed — the point is
// diagnosing a process that nobody thought to instrument in advance.
//
// Environment switches (read at init):
//
//	GOMP_FLIGHT=off|<records>  disable the flight recorder, or set the
//	                           per-thread ring capacity (default 256
//	                           records; always on unless "off")
//	GOMP_WATCHDOG=1|<dur>      arm the hang watchdog at startup; a
//	                           duration ("30s") sets the threshold,
//	                           "1"/"on" uses the 10s default. On trip,
//	                           a hang report and full diagnostic dump
//	                           go to stderr.
//	GOMP_PPROF_LABELS=1        label team goroutines with
//	                           omp_region/omp_gtid pprof labels
//	GOMP_SIGQUIT=1             dump diagnostics to stderr on SIGQUIT
//	                           (replaces Go's default die-with-stacks;
//	                           unix only)

func init() {
	if v := os.Getenv("GOMP_WATCHDOG"); v != "" && !envOff(v) {
		threshold := time.Duration(0) // 0 selects the default
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			threshold = d
		}
		StartWatchdog(threshold)
	}
	if v := os.Getenv("GOMP_PPROF_LABELS"); v != "" && !envOff(v) {
		kmp.SetProfLabels(true)
	}
	if v := os.Getenv("GOMP_SIGQUIT"); v != "" && !envOff(v) {
		HandleSIGQUIT()
	}
}

func envOff(v string) bool {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "0", "off", "false", "no":
		return true
	}
	return false
}

// DumpDiagnostics writes the runtime's full diagnostic state to w:
// health (watchdog status, stuck workers, dependence cycles), live
// teams with per-worker states, and the flight recorder's most recent
// event history. Reading is sampler-safe — it works while (and exactly
// because) the workload is wedged.
func DumpDiagnostics(w io.Writer) error { return trace.WriteDiagnostics(w) }

// SetFlightRecorder enables or disables the always-on flight recorder
// (default on; GOMP_FLIGHT=off disables it from the environment).
// Disabling stops recording but keeps the captured history readable.
func SetFlightRecorder(on bool) { kmp.SetFlightRecorder(on) }

// SetFlightRingSize sets the per-thread flight-ring capacity in records
// (rounded to a power of two, clamped to [16, 65536]); each thread resizes
// its ring at its next event. GOMP_FLIGHT=<n> sets it from the environment.
func SetFlightRingSize(records int) { kmp.SetFlightRingSize(records) }

// SetProfileLabels enables or disables pprof region labelling: team
// goroutines carry omp_region ("file.go:42 parallel") and omp_gtid
// labels while inside a parallel region, so CPU/goroutine profiles
// break down by pragma. Off by default — labelling costs two
// SetGoroutineLabels calls per thread per region. Note that enabling
// it makes region join reset the forking goroutine's own label set.
func SetProfileLabels(on bool) { kmp.SetProfLabels(on) }

// WatchdogConfig configures StartWatchdogConfig.
type WatchdogConfig = kmp.WatchdogConfig

// HangReport is a watchdog trip's findings: stuck workers and proven
// dependence cycles.
type HangReport = kmp.HangReport

// StartWatchdog arms the hang/deadlock watchdog with the given trip
// threshold (0 selects the 10s default) and returns a stop function. A
// worker parked in a barrier or stealing sweep past the threshold — or
// a dependence cycle among withheld tasks, detected immediately — trips
// the watchdog: a hang report naming the stuck workers' regions and the
// cycle's pragma locations is written to stderr, followed by a full
// diagnostic dump. /debug/gomp/health and the gomp_health /
// gomp_watchdog_trips_total metrics reflect watchdog state either way.
//
// GOMP_WATCHDOG=1 (or =<duration>) arms it from the environment.
func StartWatchdog(threshold time.Duration) (stop func()) {
	return StartWatchdogConfig(WatchdogConfig{Threshold: threshold})
}

// StartWatchdogConfig is StartWatchdog with full control: custom
// sampling interval and OnTrip handler. A nil OnTrip gets the default
// stderr report + diagnostic dump.
func StartWatchdogConfig(cfg WatchdogConfig) (stop func()) {
	if cfg.OnTrip == nil {
		cfg.OnTrip = func(r *HangReport) {
			fmt.Fprintf(os.Stderr, "gomp: WATCHDOG TRIP — runtime appears hung\n%s\n", r)
			DumpDiagnostics(os.Stderr)
		}
	}
	return kmp.StartWatchdog(cfg)
}

// Health is the runtime's self-diagnosis snapshot, also served as JSON
// at /debug/gomp/health.
type Health = trace.Health

// ReadHealth snapshots runtime health: watchdog state, workers stuck
// past the threshold, and dependence cycles detected right now.
func ReadHealth() Health { return trace.ReadHealth() }
