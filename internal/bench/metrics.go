package bench

import (
	"gomp/internal/npb"
	"gomp/internal/trace"
)

// MeasureMetrics runs one extra, instrumented pass of a kernel's omp
// flavour and returns the runtime metrics snapshot — fork counts,
// barrier-wait time, steal counts, task statistics. It deliberately runs
// outside the timed sweep: collection is cheap (a few stores per event)
// but not free, and the perf-trajectory numbers in BENCH_<class>.json
// must stay comparable with earlier, uninstrumented revisions.
func MeasureMetrics(kernel string, class npb.Class, threads int) (*trace.MetricsSnapshot, error) {
	p := trace.New()
	p.Start()
	_, err := Run(kernel, "omp", class, threads)
	p.Stop()
	if err != nil {
		return nil, err
	}
	s := p.Metrics().Snapshot()
	return &s, nil
}
