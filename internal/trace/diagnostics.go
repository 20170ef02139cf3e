package trace

import (
	"fmt"
	"io"
	"time"

	"gomp/internal/kmp"
)

// Always-on diagnostics: the trace-layer view of the runtime's flight
// recorder and hang watchdog (internal/kmp). Unlike the Profiler —
// which exists only while someone collects — these read state the
// runtime maintains unconditionally, so they answer "what was the
// runtime doing just now" after the fact: on a watchdog trip or a
// /debug/gomp/flight scrape of a wedged process.

// Health is the runtime's self-diagnosis plus the trace layer's own
// state: what /debug/gomp/health serves.
type Health struct {
	kmp.HealthStatus
	// ProfilerActive reports whether a profiler is running (Default).
	ProfilerActive bool `json:"profiler_active"`
}

// ReadHealth snapshots runtime health: watchdog state, the workers its
// last sweep found stuck, and recorder status.
func ReadHealth() Health {
	return Health{HealthStatus: kmp.ReadHealth(), ProfilerActive: Default() != nil}
}

// FlightEvent is one flight-recorder record in exportable form.
type FlightEvent struct {
	Kind     string `json:"kind"`
	Region   string `json:"region,omitempty"`
	Gtid     int    `json:"gtid"`
	Tid      int    `json:"tid"`
	NThreads int    `json:"nthreads,omitempty"`
	WhenNs   int64  `json:"when_ns"`
	DurNs    int64  `json:"dur_ns,omitempty"`
	// Folded is, on a fork record, the number of back-to-back regions
	// folded into it after its first: the record stands for Folded+1
	// joined regions, WhenNs is the first one's fork and WhenNs+DurNs the
	// run's last-seen time (up to 63 regions stale). A fork-begin is a run
	// whose next region is still running.
	Folded int64 `json:"folded,omitempty"`
	Arg0   int64 `json:"arg0,omitempty"`
	Arg1   int64 `json:"arg1,omitempty"`
}

// FlightEvents snapshots the flight recorder: the merged most-recent
// event history of every live team thread, oldest first. Available with
// no profiler installed — that is the point.
func FlightEvents() []FlightEvent {
	evs := kmp.ReadFlight()
	out := make([]FlightEvent, 0, len(evs))
	for _, ev := range evs {
		fe := FlightEvent{
			Kind:     ev.Kind.String(),
			Region:   ev.Loc.String(),
			Gtid:     ev.Gtid,
			Tid:      ev.Tid,
			NThreads: ev.NThreads,
			WhenNs:   ev.When,
			DurNs:    ev.Dur,
			Arg0:     ev.Arg0,
			Arg1:     ev.Arg1,
		}
		if ev.Kind == kmp.TraceForkBegin || ev.Kind == kmp.TraceForkEnd {
			fe.Folded, fe.Arg0 = ev.Arg0, 0
		}
		out = append(out, fe)
	}
	return out
}

// WriteDiagnostics writes the full diagnostic dump — health, stuck
// workers, live team status and the flight-recorder tail — to w; the tail is the flight recorder's text rendering (/flight serves
// JSON). This is what omp.DumpDiagnostics and the watchdog's default trip
// action emit; every section reads only sampler-visible state, so dumping
// never perturbs or stops the workload (it works precisely when the
// workload is wedged).
func WriteDiagnostics(w io.Writer) error {
	h := ReadHealth()
	fmt.Fprintf(w, "=== gomp diagnostics ===\n")
	fmt.Fprintf(w, "healthy:          %v\n", h.Healthy)
	fmt.Fprintf(w, "watchdog:         running=%v threshold=%v trips=%d\n",
		h.WatchdogRunning, time.Duration(h.WatchdogThresholdNs), h.WatchdogTrips)
	fmt.Fprintf(w, "flight recorder:  %v\n", h.FlightRecorder)
	fmt.Fprintf(w, "profiler active:  %v\n", h.ProfilerActive)

	if len(h.Stuck) > 0 {
		fmt.Fprintf(w, "\n-- stuck workers --\n")
		for _, s := range h.Stuck {
			fmt.Fprintf(w, "  g%d (tid %d) %s for %v in %s\n",
				s.Gtid, s.Tid, s.State, time.Duration(s.ForNs).Round(time.Millisecond), s.Region)
		}
	}
	if r := kmp.LastHangReport(); r != nil {
		fmt.Fprintf(w, "\n-- last watchdog trip --\n%s", r)
	}

	st := kmp.ReadStatus()
	fmt.Fprintf(w, "\n-- live teams (%d) --\n", len(st.Teams))
	for _, tm := range st.Teams {
		fmt.Fprintf(w, "  team size=%d cap=%d regions=%d %s\n", tm.Size, tm.Capacity, tm.Regions, tm.Region)
		for _, wk := range tm.Workers {
			fmt.Fprintf(w, "    g%-4d tid=%-3d %-10s %s\n", wk.Gtid, wk.Tid, wk.State, wk.Region)
		}
	}

	// The flight recorder's tail, one row per record, oldest first; a fork
	// record standing for a run of N back-to-back regions ends in ×N.
	fmt.Fprintf(w, "\n-- flight recorder --\n")
	evs := FlightEvents()
	if len(evs) == 0 {
		_, err := fmt.Fprintln(w, "flight recorder: no events recorded (recorder off or no regions run)")
		return err
	}
	base := evs[0].WhenNs
	fmt.Fprintf(w, "flight recorder: %d events (t0 = oldest record)\n", len(evs))
	fmt.Fprintf(w, "  %12s  %-14s  %4s  %4s  %10s  %s\n", "t+", "kind", "gtid", "tid", "dur", "region")
	for _, ev := range evs {
		dur, run := "", ""
		if ev.DurNs > 0 {
			dur = time.Duration(ev.DurNs).Round(time.Microsecond).String()
		}
		if ev.Folded > 0 {
			run = fmt.Sprintf("  ×%d", ev.Folded+1)
		}
		_, err := fmt.Fprintf(w, "  %12s  %-14s  %4d  %4d  %10s  %s%s\n",
			time.Duration(ev.WhenNs-base).Round(time.Microsecond),
			ev.Kind, ev.Gtid, ev.Tid, dur, ev.Region, run)
		if err != nil {
			return err
		}
	}
	return nil
}
