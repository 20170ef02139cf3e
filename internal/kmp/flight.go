package kmp

import (
	"os"
	"sort"
	"strconv"
	"strings"
)

// Flight recorder: the always-on black box of the runtime. It answers "what
// was the runtime doing just before it misbehaved" — after a hang or a
// watchdog trip, with no prior opt-in — by reading the same
// per-thread event rings a Collector drains ("Events" in doc.go). It keeps
// fork/join, barrier, dispatch, steal, task, dependence and cancel events
// but no static-loop spans, and a run of back-to-back identical regions is
// one fork record whose Arg0 counts the regions folded into it. This file
// holds its switches and its reader.

// DefaultFlightRecords is the per-thread ring capacity in records when
// GOMP_FLIGHT does not override it. Six 8-byte words per record puts a
// ring at ~12 KiB — cheap enough to keep on every pooled thread.
const DefaultFlightRecords = 256

func init() {
	on, records := true, DefaultFlightRecords
	switch v := strings.ToLower(strings.TrimSpace(os.Getenv("GOMP_FLIGHT"))); v {
	case "off", "0", "false", "no":
		on = false
	default:
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			records = n
		}
	}
	setGate(func() { gate.rec, gate.recLog = on, ringLog(records) })
}

// FlightRecording reports whether the flight recorder is currently
// recording events.
func FlightRecording() bool { return eventGate.Load()&tagRec != 0 }

// SetFlightRecorder enables or disables the flight recorder at runtime
// (GOMP_FLIGHT=off disables it from the environment). Disabling stops
// recording but keeps existing rings readable: ReadFlight still returns
// the history captured while the recorder was on.
func SetFlightRecorder(on bool) { setGate(func() { gate.rec = on }) }

// SetFlightRingSize sets the per-thread ring capacity, in records (rounded
// up to a power of two, clamped to [16, 65536]). Each thread resizes its
// ring at its next event, keeping its newest records.
func SetFlightRingSize(records int) { setGate(func() { gate.recLog = ringLog(records) }) }

// ReadFlight snapshots every live thread's ring and returns the records
// written while the recorder was on, merged and ordered by timestamp — the
// runtime's most recent events, regardless of whether any profiler was
// ever enabled. Like ReadStatus it never stops the world: threads keep
// recording while the snapshot is taken. Serialised (team-of-one) regions
// run on threads outside the team registry, so only real team threads
// appear.
func ReadFlight() []TraceEvent {
	var out []TraceEvent
	for _, tm := range liveTeams() {
		thp := tm.thrA.Load()
		if thp == nil {
			continue
		}
		for _, th := range *thp {
			if r := th.ring.Load(); r != nil {
				out, _, _ = r.read(out, 0, tagRec, tagRec)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].When < out[j].When })
	return out
}
