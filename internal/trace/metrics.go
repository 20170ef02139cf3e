package trace

import "sync/atomic"

// The metrics registry: cheap aggregate counters, gauges and histograms
// fed by the event stream, independent of the per-region flat profile.
// A Metrics value is safe for concurrent update and read. It leaves the
// process two ways: as a Snapshot, a plain JSON-able struct npbsuite
// embeds per kernel in BENCH_<class>.json, and as the OpenMetrics
// exposition (openmetrics.go) that /debug/gomp/metrics serves.

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level with a recorded high-water mark.
type Gauge struct{ v, peak atomic.Int64 }

// Add moves the gauge by d and updates the peak.
func (g *Gauge) Add(d int64) {
	n := g.v.Add(d)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Peak returns the high-water mark.
func (g *Gauge) Peak() int64 { return g.peak.Load() }

// histBuckets is the fixed bucket count of a Histogram: power-of-two
// nanosecond buckets from 1ns up to ~4s, plus an overflow bucket.
const histBuckets = 33

// Histogram is a log2-bucketed distribution of nanosecond durations.
type Histogram struct {
	count, sum atomic.Int64
	buckets    [histBuckets]atomic.Int64
}

// Observe records one duration in nanoseconds.
func (h *Histogram) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	b := 0
	for v := ns; v > 0 && b < histBuckets-1; v >>= 1 {
		b++
	}
	h.buckets[b].Add(1)
}

// HistBucket is one non-empty histogram bucket: Count observations at
// most LeNs nanoseconds.
type HistBucket struct {
	LeNs  int64 `json:"le_ns"`
	Count int64 `json:"count"`
}

// HistSnapshot is a point-in-time histogram reading.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	SumNs   int64        `json:"sum_ns"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram's non-empty buckets. Bucket b holds
// the values of bit length b — [2^(b-1), 2^b − 1] — so its inclusive
// upper bound is 2^b − 1 (bucket 0 holds only clamped non-positive
// observations, upper bound 0).
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), SumNs: h.sum.Load()}
	for b := 0; b < histBuckets; b++ {
		if n := h.buckets[b].Load(); n > 0 {
			le := int64(1)<<b - 1
			if b == 0 {
				le = 0
			}
			s.Buckets = append(s.Buckets, HistBucket{LeNs: le, Count: n})
		}
	}
	return s
}

// Metrics is the runtime metrics registry one profiler maintains.
type Metrics struct {
	Forks         Counter // parallel regions joined
	RegionNs      Counter // summed region wall time
	Barriers      Counter // explicit barrier arrivals
	BarrierWaitNs Counter // summed barrier wait (incl. task drain)
	LoopInits     Counter // dynamic-loop initialisations (per thread)
	LoopNs        Counter // summed per-thread loop participation
	LoopSteals    Counter // iteration-range steals
	StolenIters   Counter // iterations transferred by steals
	TaskSpawns    Counter // deferred explicit tasks created
	TaskRuns      Counter // deferred explicit tasks completed
	TaskNs        Counter // summed task body time
	TaskSteals    Counter // tasks stolen from a teammate's deque
	Taskgroups    Counter
	Taskloops     Counter
	DepStalls     Counter // tasks withheld on unresolved dependences
	DepReleases   Counter // successors made ready by completions
	Cancels       Counter // cancel-directive encounters
	RingDrops     Counter // events lost to full rings (bounded history)

	// TaskQueue tracks spawned-but-not-yet-run deferred tasks: an
	// approximate ready/withheld backlog with its peak.
	TaskQueue Gauge

	// BarrierWait and TaskRun are latency distributions of the two
	// span kinds that diagnose imbalance: time threads burn waiting at
	// barriers, and task body granularity.
	BarrierWait Histogram
	TaskRun     Histogram
}

// MetricsSnapshot is a point-in-time JSON-able reading of a Metrics
// registry — the per-kernel metrics block BENCH_<class>.json embeds.
type MetricsSnapshot struct {
	Forks         int64        `json:"forks"`
	RegionNs      int64        `json:"region_ns"`
	Barriers      int64        `json:"barriers"`
	BarrierWaitNs int64        `json:"barrier_wait_ns"`
	LoopInits     int64        `json:"loop_inits"`
	LoopNs        int64        `json:"loop_ns"`
	LoopSteals    int64        `json:"loop_steals"`
	StolenIters   int64        `json:"stolen_iters"`
	TaskSpawns    int64        `json:"task_spawns"`
	TaskRuns      int64        `json:"task_runs"`
	TaskNs        int64        `json:"task_ns"`
	TaskSteals    int64        `json:"task_steals"`
	Taskgroups    int64        `json:"taskgroups"`
	Taskloops     int64        `json:"taskloops"`
	DepStalls     int64        `json:"dep_stalls"`
	DepReleases   int64        `json:"dep_releases"`
	Cancels       int64        `json:"cancels"`
	RingDrops     int64        `json:"ring_drops"`
	TaskQueuePeak int64        `json:"task_queue_peak"`
	BarrierWait   HistSnapshot `json:"barrier_wait_hist"`
	TaskRunHist   HistSnapshot `json:"task_run_hist"`
}

// Snapshot captures every counter, gauge peak and histogram.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Forks:         m.Forks.Value(),
		RegionNs:      m.RegionNs.Value(),
		Barriers:      m.Barriers.Value(),
		BarrierWaitNs: m.BarrierWaitNs.Value(),
		LoopInits:     m.LoopInits.Value(),
		LoopNs:        m.LoopNs.Value(),
		LoopSteals:    m.LoopSteals.Value(),
		StolenIters:   m.StolenIters.Value(),
		TaskSpawns:    m.TaskSpawns.Value(),
		TaskRuns:      m.TaskRuns.Value(),
		TaskNs:        m.TaskNs.Value(),
		TaskSteals:    m.TaskSteals.Value(),
		Taskgroups:    m.Taskgroups.Value(),
		Taskloops:     m.Taskloops.Value(),
		DepStalls:     m.DepStalls.Value(),
		DepReleases:   m.DepReleases.Value(),
		Cancels:       m.Cancels.Value(),
		RingDrops:     m.RingDrops.Value(),
		TaskQueuePeak: m.TaskQueue.Peak(),
		BarrierWait:   m.BarrierWait.Snapshot(),
		TaskRunHist:   m.TaskRun.Snapshot(),
	}
}
