package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The demo must produce all three views non-empty: flat profile rows,
// a metrics exposition with activity, and a Perfetto-loadable timeline.
func TestProfileExampleOutput(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	var out bytes.Buffer
	if err := run(&out, tracePath); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{
		"verified=true",
		"flat profile (gprof-style):",
		"profile.go:48",             // the demo's own region, by file:line
		"makea (matrix generation)", // application zone
		"gomp_forks_total ",
		"timeline written to",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("timeline not written: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 10 {
		t.Fatalf("timeline has only %d events", len(doc.TraceEvents))
	}
	spans, tracks := 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
		case "M":
			if ev.Name == "thread_name" {
				tracks++
			}
		}
	}
	if spans == 0 || tracks < 4 {
		t.Fatalf("timeline spans=%d tracks=%d, want spans>0 and >=4 named tracks", spans, tracks)
	}
}
