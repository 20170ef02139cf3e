package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Benchmark-side tracing: spans around the calls into each layer, kept in
// memory and written out when the run ends. All spans are opened and
// closed on the benchmark's main goroutine, so a stack gives each span its
// parent. A nil or switched-off tracer costs one branch per call.

type spanRec struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"` // 0: none
	Cycle   int              `json:"cycle"`  // -1: set-up
	Name    string           `json:"name"`
	StartNs int64            `json:"start_ns"`
	EndNs   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

type tracer struct {
	on    bool
	cycle int
	t0    time.Time
	spans []spanRec
	open  []int // indices into spans
}

func nop() {}

// span opens a span and returns the function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil || !t.on {
		return nop
	}
	rec := spanRec{ID: len(t.spans) + 1, Cycle: t.cycle, Name: name, StartNs: time.Since(t.t0).Nanoseconds()}
	if n := len(t.open); n > 0 {
		rec.Parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, rec)
	t.open = append(t.open, len(t.spans)-1)
	return func() {
		i := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		t.spans[i].EndNs = time.Since(t.t0).Nanoseconds()
	}
}

// counts attaches counter readings to the innermost open span, so that
// ratios are taken at the boundary where the work happened.
func (t *tracer) counts(c map[string]int64) {
	if t != nil && t.on && len(t.open) > 0 {
		t.spans[t.open[len(t.open)-1]].Counts = c
	}
}

// traceFile is what benchmark/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Threads  int       `json:"threads"`
	Host     hostInfo  `json:"host"`
	Spans    []spanRec `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
