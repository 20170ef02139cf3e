package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Per-region load-imbalance and blame analysis: the "which parallel
// region is wasting cores right now and why" layer of /debug/gomp.
//
// For every source region the profiler splits busy time (loop
// participation + task bodies) and explicit-barrier wait by worker
// (regionStats.perWorker). From that split three figures follow:
//
//   - imbalance = (max − mean) / mean of per-worker busy time: 0 for a
//     perfectly balanced region, 0.75 for a triangular loop split
//     statically over four threads, unbounded as one worker monopolises
//     the work;
//
//   - blame: the worker with the largest busy time is the straggler the
//     rest of the team waits for at the next barrier; its gtid and the
//     idle time it caused — Σ over teammates of (max − busy_i) — are
//     reported so "who" has an answer, not just "how much";
//
//   - what-if speedup = max / mean: the factor by which the region's
//     critical path would shrink if the same total work were spread
//     evenly (better schedule, nonmonotonic stealing, smaller chunks).

// RegionAnalysis is one region's imbalance row, served as JSON by
// /debug/gomp/regions and rendered in the text Report.
type RegionAnalysis struct {
	Name    string `json:"region"`
	Workers int    `json:"workers"`
	// MaxBusyNs/MeanBusyNs/MinBusyNs summarise per-worker busy time.
	MaxBusyNs  int64 `json:"max_busy_ns"`
	MeanBusyNs int64 `json:"mean_busy_ns"`
	MinBusyNs  int64 `json:"min_busy_ns"`
	// Imbalance is (max − mean) / mean busy time.
	Imbalance float64 `json:"imbalance"`
	// BlameGtid is the straggler: the worker with the largest busy time.
	// BlameNs is the teammate idle time it caused, Σ (max − busy_i).
	BlameGtid int   `json:"blame_gtid"`
	BlameNs   int64 `json:"blame_ns"`
	// BarrierWaitNs is the measured explicit-barrier wait summed over
	// the region's workers (0 when the region never hits a barrier).
	BarrierWaitNs int64 `json:"barrier_wait_ns"`
	// WhatIfSpeedup is max/mean: the region-time factor a perfectly
	// balanced redistribution of the same work would recover.
	WhatIfSpeedup float64 `json:"what_if_speedup"`
}

// Analyses drains pending events and returns one imbalance row per
// region with per-worker data from at least two workers, sorted by
// descending blame (idle time caused). Regions whose events carry no
// per-thread spans — serial regions, regions without loops or tasks —
// have no defined imbalance and are omitted.
func (p *Profiler) Analyses() []RegionAnalysis {
	p.Flush()
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []RegionAnalysis
	for loc, st := range p.regions {
		if len(st.perWorker) < 2 {
			continue
		}
		a := RegionAnalysis{Name: named(loc, "(unlocated)"), Workers: len(st.perWorker)}
		var sum, max, min time.Duration
		var barWait time.Duration
		first := true
		for gtid, w := range st.perWorker {
			sum += w.busy
			barWait += w.barWait
			if first || w.busy < min {
				min = w.busy
			}
			if first || w.busy > max {
				max = w.busy
				a.BlameGtid = gtid
			}
			first = false
		}
		if sum <= 0 {
			continue
		}
		mean := sum / time.Duration(len(st.perWorker))
		a.MaxBusyNs = int64(max)
		a.MeanBusyNs = int64(mean)
		a.MinBusyNs = int64(min)
		a.Imbalance = float64(max-mean) / float64(mean)
		a.BlameNs = int64(max)*int64(len(st.perWorker)) - int64(sum)
		a.BarrierWaitNs = int64(barWait)
		a.WhatIfSpeedup = float64(max) / float64(mean)
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].BlameNs != out[j].BlameNs {
			return out[i].BlameNs > out[j].BlameNs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// renderAnalyses renders the imbalance rows as an aligned text table, the
// Report's closing section.
func renderAnalyses(rows []RegionAnalysis) string {
	var b strings.Builder
	b.WriteString("per-region load imbalance ((max-mean)/mean busy) and blame:\n")
	b.WriteString("  imbalance  workers  max-busy   mean-busy  blame   blame-idle  bar-wait   what-if  region\n")
	for _, a := range rows {
		fmt.Fprintf(&b, "  %9.2f  %7d  %8.3fms  %8.3fms  g%-5d  %8.3fms  %7.3fms  %6.2fx  %s\n",
			a.Imbalance, a.Workers,
			ms(time.Duration(a.MaxBusyNs)), ms(time.Duration(a.MeanBusyNs)),
			a.BlameGtid, ms(time.Duration(a.BlameNs)), ms(time.Duration(a.BarrierWaitNs)),
			a.WhatIfSpeedup, a.Name)
	}
	return b.String()
}
