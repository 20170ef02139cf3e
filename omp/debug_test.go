package omp_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"gomp/omp"
)

func httpGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// ServeDebug(":0") must bind an ephemeral port, report the real bound
// address, and serve every mounted surface: the /debug/gomp suite and the
// pprof suite. Metrics leave only as the OpenMetrics exposition, so there
// is no /debug/vars.
func TestServeDebugEphemeralPort(t *testing.T) {
	dbg, err := omp.ServeDebug(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	if strings.HasSuffix(dbg.Addr, ":0") {
		t.Fatalf("Addr %q still has port 0, want resolved port", dbg.Addr)
	}

	// Run a region so /status and /flight have something to show.
	omp.Parallel(func(th *omp.Thread) {}, omp.NumThreads(2),
		omp.Loc("debug_test.go", 1, "smoke"))

	for _, path := range []string{
		"/debug/gomp/status",
		"/debug/gomp/health",
		"/debug/gomp/flight",
		"/debug/gomp/metrics",
		"/debug/pprof/",
		"/debug/pprof/cmdline",
	} {
		if code, _ := httpGet(t, dbg.Addr, path); code != 200 {
			t.Errorf("GET %s: code %d, want 200", path, code)
		}
	}
	if code, _ := httpGet(t, dbg.Addr, "/debug/vars"); code != 404 {
		t.Errorf("GET /debug/vars: code %d, want 404", code)
	}

	// /debug/gomp without the trailing slash redirects into the suite.
	code, body := httpGet(t, dbg.Addr, "/debug/gomp")
	if code != 200 || !strings.Contains(body, "status") {
		t.Errorf("/debug/gomp redirect: code %d body %q", code, body)
	}

	// Health must be valid JSON reporting a healthy runtime.
	_, body = httpGet(t, dbg.Addr, "/debug/gomp/health")
	var h struct {
		Healthy bool `json:"healthy"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil || !h.Healthy {
		t.Errorf("/debug/gomp/health: err=%v healthy=%v body=%q", err, h.Healthy, body)
	}
}

// DumpDiagnostics must work with no profiler, no watchdog and no debug
// server — the always-on guarantee.
func TestDumpDiagnosticsSmoke(t *testing.T) {
	omp.Parallel(func(th *omp.Thread) {}, omp.NumThreads(2),
		omp.Loc("debug_test.go", 2, "dump smoke"))
	var sb strings.Builder
	if err := omp.DumpDiagnostics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "gomp diagnostics") || !strings.Contains(out, "healthy:") {
		t.Errorf("dump missing sections:\n%s", out)
	}
}
