package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"gomp/internal/kmp"
)

// Chrome trace-event JSON export: the retained raw timeline rendered in
// the trace-event format both chrome://tracing and Perfetto load. Each
// runtime thread (global id) is one track; parallel regions, loop
// participations and task bodies are complete ("X") slices; work steals
// are flow arrows ("s"/"f") from the victim's track to the thief's;
// spawns, dependence stalls/releases and cancels are instants.

// chromeEvent is one trace-event record. Ts and Dur are microseconds
// (the format's unit); the runtime clock is nanoseconds, so fractional
// microseconds keep full precision.
type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const timelinePid = 1

func us(ns int64) float64 { return float64(ns) / 1e3 }

// named gives instants and slices a non-empty display name even for
// unlocated constructs.
func named(loc kmp.Ident, fallback string) string {
	if s := loc.String(); s != "" {
		return s
	}
	return fallback
}

// slice renders span event ev as a complete ("X") slice on its thread's
// track; instant renders point event ev as a thread-scoped instant.
func slice(ev kmp.TraceEvent, name, cat string, args map[string]any) chromeEvent {
	return chromeEvent{Name: name, Cat: cat, Ph: "X", Ts: us(ev.When), Dur: us(ev.Dur),
		Pid: timelinePid, Tid: ev.Gtid, Args: args}
}

func instant(ev kmp.TraceEvent, name, cat string, args map[string]any) chromeEvent {
	return chromeEvent{Name: name, Cat: cat, Ph: "i", S: "t", Ts: us(ev.When),
		Pid: timelinePid, Tid: ev.Gtid, Args: args}
}

// WriteTimeline drains pending events and writes the retained timeline
// as Chrome trace-event JSON. The profiler must have been constructed
// with WithTimeline; otherwise only explicit zones (if any) appear.
func (p *Profiler) WriteTimeline(w io.Writer) error {
	p.Flush()
	p.mu.Lock()
	events := append([]kmp.TraceEvent(nil), p.events...)
	zones := append([]zoneSpan(nil), p.zoneSpans...)
	truncated := p.timelineDrop
	p.mu.Unlock()

	out := make([]chromeEvent, 0, 2*len(events)+len(zones)+8)
	gtids := map[int]bool{}
	flowID := 0
	for _, ev := range events {
		gtids[ev.Gtid] = true
		switch ev.Kind {
		case kmp.TraceForkEnd:
			out = append(out, slice(ev, named(ev.Loc, "parallel"), "region", map[string]any{"threads": ev.NThreads}))
		case kmp.TraceLoopFini:
			out = append(out, slice(ev, named(ev.Loc, "for"), "loop", nil))
		case kmp.TraceTaskRun:
			out = append(out, slice(ev, "task "+named(ev.Loc, "(unlocated)"), "task", nil))
		case kmp.TraceBarrier:
			out = append(out, slice(ev, "barrier", "sync", nil))
		case kmp.TraceLoopSteal, kmp.TraceTaskSteal:
			// A flow arrow from the victim's track to the thief's. The
			// start step is nudged one ns earlier so the arrow renders
			// even when both binding points share a timestamp.
			victim := int(ev.Arg0)
			gtids[victim] = true
			flowID++
			cat, name := "steal", "loop-steal"
			args := map[string]any{"victim": victim}
			if ev.Kind == kmp.TraceTaskSteal {
				name = "task-steal"
			} else {
				args["iters"] = ev.Arg1
			}
			out = append(out,
				chromeEvent{Name: name, Cat: cat, Ph: "s", ID: flowID,
					Ts: us(ev.When - 1), Pid: timelinePid, Tid: victim},
				chromeEvent{Name: name, Cat: cat, Ph: "f", BP: "e", ID: flowID,
					Ts: us(ev.When), Pid: timelinePid, Tid: ev.Gtid},
				instant(ev, name, cat, args),
			)
		case kmp.TraceTaskSpawn:
			out = append(out, instant(ev, "spawn "+named(ev.Loc, "task"), "task", map[string]any{"deps": ev.Arg0}))
		case kmp.TraceTaskDepStall:
			out = append(out, instant(ev, "dep-stall", "dep", map[string]any{"waiting_on": ev.Arg0}))
		case kmp.TraceTaskDepRelease:
			out = append(out, instant(ev, "dep-release", "dep", map[string]any{"released": ev.Arg0, "successors": ev.Arg1}))
		case kmp.TraceCancel:
			c := instant(ev, "cancel "+kmp.CancelKind(ev.Arg0).String(), "sync", nil)
			c.S = "p" // process-scoped: drawn across every thread's track
			out = append(out, c)
		case kmp.TraceTaskgroup:
			out = append(out, instant(ev, "taskgroup", "task", nil))
		case kmp.TraceTaskloop:
			out = append(out, instant(ev, "taskloop", "task", map[string]any{"trip": ev.Arg0}))
		}
	}
	for _, z := range zones {
		gtids[z.gtid] = true
		out = append(out, chromeEvent{
			Name: z.loc.String(), Cat: "zone", Ph: "X",
			Ts: us(z.start), Dur: us(z.dur), Pid: timelinePid, Tid: z.gtid,
		})
	}
	if truncated > 0 {
		out = append(out, chromeEvent{
			Name: "timeline-truncated", Cat: "meta", Ph: "i", S: "g",
			Pid: timelinePid, Tid: 0,
			Args: map[string]any{"dropped_events": truncated},
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })

	// Track metadata leads: a named process and one named, ordered track
	// per runtime thread (gtid 0 is the initial/root thread).
	ids := make([]int, 0, len(gtids))
	for g := range gtids {
		ids = append(ids, g)
	}
	sort.Ints(ids)
	meta := make([]chromeEvent, 0, len(ids)+1)
	meta = append(meta, chromeEvent{
		Name: "process_name", Ph: "M", Pid: timelinePid,
		Args: map[string]any{"name": "gomp"},
	})
	for i, g := range ids {
		name := fmt.Sprintf("omp thread g%d", g)
		if g == 0 {
			name = "initial thread"
		}
		meta = append(meta,
			chromeEvent{Name: "thread_name", Ph: "M", Pid: timelinePid, Tid: g,
				Args: map[string]any{"name": name}},
			chromeEvent{Name: "thread_sort_index", Ph: "M", Pid: timelinePid, Tid: g,
				Args: map[string]any{"sort_index": i}},
		)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     append(meta, out...),
		"displayTimeUnit": "ms",
	})
}
