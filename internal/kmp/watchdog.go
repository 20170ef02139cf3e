package kmp

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Hang watchdog: a sampler goroutine that reads the packed per-worker
// state words (state.go) and trips when a worker stops making progress.
//
// A worker is stuck when its state word has not changed — same state,
// same transition sequence, same location — across samples spanning the
// threshold, while in a wait state (in-barrier, stealing). The
// transition sequence in the word is what makes "unchanged" meaningful:
// a worker bouncing through the same barrier between two samples
// produces a different word every time. Long barriers under honest
// imbalance DO trip the watchdog; that is intended — the threshold is
// the operator's definition of "too long", and the report names who is
// waiting where. A dependence chain whose head never finishes shows up
// the same way: the region's other workers wait for it in the barrier.
// Dependence edges cannot form a cycle (registerDeps, taskdep.go), so
// there is no other hang to look for.
//
// The watchdog trips once per episode: the first failing sweep fires
// OnTrip (and counts gomp_watchdog_trips_total), further failing sweeps
// stay silent, and a clean sweep re-arms it. Everything the sampler
// reads is a sampler-visible atomic, so an armed watchdog costs the
// workload nothing on any hot path.

// StuckWorker is one wedged worker in a hang report.
type StuckWorker struct {
	Gtid   int    `json:"gtid"`
	Tid    int    `json:"tid"`
	State  string `json:"state"`
	Region string `json:"region,omitempty"`
	// ForNs is how long the state word has been unchanged, in
	// nanoseconds (a lower bound: measured from the first sample that
	// saw this word).
	ForNs int64 `json:"for_ns"`
}

// HangReport is what a watchdog trip delivers: the stuck workers and the
// sweep's trace-clock timestamp.
type HangReport struct {
	WhenNs      int64         `json:"when_ns"`
	ThresholdNs int64         `json:"threshold_ns"`
	Stuck       []StuckWorker `json:"stuck,omitempty"`
}

// String renders the report as the multi-line text a trip handler can
// write to stderr.
func (r *HangReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hang report (threshold %v):\n", time.Duration(r.ThresholdNs))
	for _, s := range r.Stuck {
		fmt.Fprintf(&b, "  worker g%d (tid %d) %s for %v in %s\n",
			s.Gtid, s.Tid, s.State, time.Duration(s.ForNs).Round(time.Millisecond), s.Region)
	}
	return b.String()
}

// WatchdogConfig configures StartWatchdog.
type WatchdogConfig struct {
	// Threshold is how long a worker may sit in one wait state before
	// the watchdog trips; <= 0 means the 10s default.
	Threshold time.Duration
	// Interval is the sampling period; <= 0 derives Threshold/4,
	// clamped to [1ms, 1s].
	Interval time.Duration
	// OnTrip, if non-nil, is called once per trip episode from the
	// sampler goroutine. It must not block for long: the watchdog does
	// not sample while it runs.
	OnTrip func(*HangReport)
}

// DefaultWatchdogThreshold is the trip threshold used when
// WatchdogConfig.Threshold (or GOMP_WATCHDOG's value) gives none.
const DefaultWatchdogThreshold = 10 * time.Second

// wd is the watchdog's process-global state: at most one sampler runs
// at a time (starting a new one stops the old), and the health surface
// (ReadHealth, OpenMetrics) reads the atomics regardless of which.
var wd struct {
	mu   sync.Mutex
	stop chan struct{}

	running     atomic.Bool
	thresholdNs atomic.Int64
	trips       atomic.Uint64
	last        atomic.Pointer[HangReport]
	stuck       atomic.Pointer[[]StuckWorker] // most recent sweep's result
}

// WatchdogTrips returns the number of trip episodes since process start
// (the gomp_watchdog_trips_total counter).
func WatchdogTrips() uint64 { return wd.trips.Load() }

// WatchdogRunning reports whether a watchdog sampler is armed.
func WatchdogRunning() bool { return wd.running.Load() }

// LastHangReport returns the most recent trip's report, nil if the
// watchdog never tripped.
func LastHangReport() *HangReport { return wd.last.Load() }

// StartWatchdog arms the hang watchdog and returns a stop function.
// At most one watchdog runs per process: starting a new one replaces
// the previous. Trip counts and the last report survive restarts.
func StartWatchdog(cfg WatchdogConfig) (stop func()) {
	if cfg.Threshold <= 0 {
		cfg.Threshold = DefaultWatchdogThreshold
	}
	if cfg.Interval <= 0 {
		cfg.Interval = cfg.Threshold / 4
	}
	if cfg.Interval < time.Millisecond {
		cfg.Interval = time.Millisecond
	}
	if cfg.Interval > time.Second {
		cfg.Interval = time.Second
	}

	wd.mu.Lock()
	if wd.stop != nil {
		close(wd.stop)
	}
	ch := make(chan struct{})
	wd.stop = ch
	wd.thresholdNs.Store(cfg.Threshold.Nanoseconds())
	wd.running.Store(true)
	wd.mu.Unlock()

	go watchdogLoop(cfg, ch)

	var once sync.Once
	return func() {
		once.Do(func() {
			wd.mu.Lock()
			if wd.stop == ch { // still ours: not replaced by a newer watchdog
				close(ch)
				wd.stop = nil
				wd.running.Store(false)
				wd.stuck.Store(nil)
			}
			wd.mu.Unlock()
		})
	}
}

func watchdogLoop(cfg WatchdogConfig, stop chan struct{}) {
	type sample struct {
		word  uint64
		since int64
	}
	prev := make(map[*Thread]sample)
	thr := cfg.Threshold.Nanoseconds()
	tick := time.NewTicker(cfg.Interval)
	defer tick.Stop()
	tripped := false
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		now := TraceNow()
		var stuck []StuckWorker
		next := make(map[*Thread]sample, len(prev))
		for _, tm := range liveTeams() {
			thp := tm.thrA.Load()
			if thp == nil {
				continue
			}
			for _, th := range *thp {
				w := th.state.Load()
				s, locID := unpackStateWord(w)
				if s != StateInBarrier && s != StateStealing {
					continue // only wait states can be "stuck"
				}
				since := now
				if ps, ok := prev[th]; ok && ps.word == w {
					since = ps.since
				}
				next[th] = sample{word: w, since: since}
				if now-since >= thr {
					stuck = append(stuck, StuckWorker{
						Gtid:   th.Gtid,
						Tid:    th.Tid,
						State:  s.String(),
						Region: locByID(locID).String(),
						ForNs:  now - since,
					})
				}
			}
		}
		prev = next
		wd.stuck.Store(&stuck)
		if len(stuck) == 0 {
			tripped = false // clean sweep re-arms the episode latch
			continue
		}
		if tripped {
			continue
		}
		tripped = true
		rep := &HangReport{WhenNs: now, ThresholdNs: thr, Stuck: stuck}
		wd.trips.Add(1)
		wd.last.Store(rep)
		if cfg.OnTrip != nil {
			cfg.OnTrip(rep)
		}
	}
}

// HealthStatus is the runtime's self-diagnosis: what /debug/gomp/health
// serves and the gomp_health gauge condenses.
type HealthStatus struct {
	// Healthy is false when workers are currently stuck past the
	// watchdog threshold.
	Healthy bool `json:"healthy"`
	// WatchdogRunning/WatchdogThresholdNs describe the armed watchdog
	// (threshold 0 when none ever armed).
	WatchdogRunning     bool  `json:"watchdog_running"`
	WatchdogThresholdNs int64 `json:"watchdog_threshold_ns,omitempty"`
	// WatchdogTrips counts trip episodes since process start.
	WatchdogTrips uint64 `json:"watchdog_trips"`
	// FlightRecorder reports whether the flight recorder is recording.
	FlightRecorder bool `json:"flight_recorder"`
	// Stuck is the armed watchdog's most recent sweep result (empty
	// with no watchdog).
	Stuck []StuckWorker `json:"stuck_workers,omitempty"`
	// LastTrip is the most recent trip's report, if any.
	LastTrip *HangReport `json:"last_trip,omitempty"`
}

// ReadHealth snapshots the runtime's health. Stuck-worker data comes
// from the watchdog's last sweep, so it is empty unless a watchdog is
// armed.
func ReadHealth() HealthStatus {
	h := HealthStatus{
		WatchdogRunning:     wd.running.Load(),
		WatchdogThresholdNs: wd.thresholdNs.Load(),
		WatchdogTrips:       wd.trips.Load(),
		FlightRecorder:      FlightRecording(),
		LastTrip:            wd.last.Load(),
	}
	if sp := wd.stuck.Load(); sp != nil {
		h.Stuck = *sp
	}
	h.Healthy = len(h.Stuck) == 0
	return h
}
