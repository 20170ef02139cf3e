package trace

import (
	"strconv"
	"strings"
	"testing"
)

// Golden test of the exposition writer: metadata lines, counter _total
// suffixes, cumulative histogram buckets with the +Inf terminator,
// label escaping and the # EOF trailer, all from known inputs.
func TestWriteExpositionGolden(t *testing.T) {
	var m Metrics
	m.Forks.Add(3)
	m.RingDrops.Add(2)
	m.BarrierWait.Observe(1)
	m.BarrierWait.Observe(3)
	m.BarrierWait.Observe(3)
	m.TaskRun.Observe(1 << 40) // lands in the unbounded top bucket
	snap := m.Snapshot()

	sums := []RegionSummary{{Name: "q\"u\\o\nte", LoopTime: 5, TaskTime: 7}}
	analyses := []RegionAnalysis{{Name: "r", Imbalance: 0.75}}
	var b strings.Builder
	if err := writeExposition(&b, &snap, sums, analyses, true); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE gomp_forks counter\n",
		"# HELP gomp_forks ",
		"gomp_forks_total 3\n",
		"# TYPE gomp_trace_dropped_events counter\n",
		"gomp_trace_dropped_events_total 2\n",
		"gomp_profiler_active 1\n",
		"# TYPE gomp_barrier_wait_hist_ns histogram\n",
		"gomp_barrier_wait_hist_ns_bucket{le=\"1\"} 1\n",
		"gomp_barrier_wait_hist_ns_bucket{le=\"3\"} 3\n", // cumulative: 1 + 2
		"gomp_barrier_wait_hist_ns_bucket{le=\"+Inf\"} 3\n",
		"gomp_barrier_wait_hist_ns_sum 7\n",
		"gomp_barrier_wait_hist_ns_count 3\n",
		"gomp_task_run_hist_ns_bucket{le=\"+Inf\"} 1\n",
		`gomp_region_busy_ns_total{region="q\"u\\o\nte"} 12` + "\n",
		`gomp_region_imbalance{region="r"} 0.75` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("exposition does not end with # EOF:\n%s", out)
	}
	// The unbounded top bucket must not claim a finite upper bound.
	if strings.Contains(out, "4294967295") {
		t.Errorf("overflow bucket leaked a false finite le bound:\n%s", out)
	}
	// Bucket series must be non-decreasing (OpenMetrics cumulativity).
	prev := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "gomp_barrier_wait_hist_ns_bucket") {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Errorf("bucket counts not cumulative at %q", line)
		}
		prev = v
	}
}

// With no profiler running the package-level writer must still emit a
// valid exposition: gomp_profiler_active 0 and the # EOF trailer, so a
// scrape target never errors just because tracing is off.
func TestWriteOpenMetricsDisabled(t *testing.T) {
	if cur := running.Swap(nil); cur != nil {
		defer running.Store(cur)
	}
	var b strings.Builder
	if err := WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "gomp_profiler_active 0\n") {
		t.Errorf("disabled exposition missing active=0 gauge:\n%s", out)
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("disabled exposition missing # EOF:\n%s", out)
	}
	if strings.Contains(out, "gomp_forks_total") {
		t.Errorf("disabled exposition leaks registry families:\n%s", out)
	}
}
