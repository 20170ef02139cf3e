package bench

import (
	"fmt"
	"runtime"
	"strings"

	"gomp/omp"
)

// Tasking microbenchmarks: the explicit-task subsystem measured the same
// way the NPB sweeps measure the loop runtime, rendered as a table next to
// the Table I–III analogues. Two workloads:
//
//   - fib: recursive Fibonacci through task/taskwait — the canonical
//     irregular workload, all steal traffic.
//   - taskloop: an imbalanced loop (cost ∝ i²) chunked into tasks,
//     against the same loop under worksharing dynamic dispatch — the two
//     chunk-granular lowering strategies head to head.

// TaskPoint is one (threads) row of the tasking sweep.
type TaskPoint struct {
	Threads        int
	FibSeconds     float64 // task fib mean
	FibSerial      float64 // serial fib mean (same host, same runs)
	TaskloopSecs   float64 // taskloop over the imbalanced kernel
	ForDynamicSecs float64 // worksharing dynamic over the same kernel
	Runs           int
}

// TaskSweep is the full tasking experiment across thread counts.
type TaskSweep struct {
	Threads        []int
	Points         []TaskPoint
	Oversubscribed map[int]bool
}

// Tasking workload parameters, shared with the BenchmarkTaskFib /
// BenchmarkTaskloopVsFor targets in the root package so the npbsuite table
// and `go test -bench` measure the identical configuration.
const (
	// TaskFibN is the Fibonacci argument of the task workload.
	TaskFibN = 27
	// TaskFibCutoff is the subtree size below which FibTask recurses
	// serially instead of spawning.
	TaskFibCutoff = 16
	// TaskloopTrip is the iteration count of the imbalanced loop workload.
	TaskloopTrip = 2048
	// TaskloopGrain is the grainsize/chunk used for both taskloop and the
	// dynamic worksharing comparison.
	TaskloopGrain = 16
)

// FibSerial is the serial Fibonacci reference.
func FibSerial(n int) int {
	if n < 2 {
		return n
	}
	return FibSerial(n-1) + FibSerial(n-2)
}

// FibTask is the recursive task decomposition of fib(n): spawn fib(n-1) as
// a deferred task, compute fib(n-2) in place, taskwait, combine; below
// TaskFibCutoff it finishes serially.
func FibTask(t *omp.Thread, n int) int {
	if n < TaskFibCutoff {
		return FibSerial(n)
	}
	var x, y int
	omp.Task(t, func(ex *omp.Thread) { x = FibTask(ex, n-1) })
	y = FibTask(t, n-2)
	omp.Taskwait(t)
	return x + y
}

// ImbalancedKernel is the ablation-A3 workload: cost grows with the
// iteration index, so static partitions suffer tail imbalance and the
// rebalancing schemes (dynamic dispatch, task stealing) shine.
func ImbalancedKernel(lo, hi int64) float64 {
	local := 0.0
	for j := lo; j < hi; j++ {
		for k := int64(0); k < j; k++ {
			local += float64(k&7) * 1e-9
		}
	}
	return local
}

// RunTaskSweep measures the tasking workloads across the thread list, runs
// times each, reporting means — the same protocol as RunSweep.
func RunTaskSweep(threads []int, runs int, progress func(string)) *TaskSweep {
	if runs < 1 {
		runs = 1
	}
	sw := &TaskSweep{Threads: threads, Oversubscribed: map[int]bool{}}
	want := FibSerial(TaskFibN)
	for _, th := range threads {
		sw.Oversubscribed[th] = th > runtime.NumCPU()
		p := TaskPoint{Threads: th, Runs: runs}
		for r := 0; r < runs; r++ {
			if progress != nil {
				progress(fmt.Sprintf("tasking: threads=%d run %d/%d", th, r+1, runs))
			}
			start := omp.GetWtime()
			if FibSerial(TaskFibN) != want {
				panic("bench: serial fib mismatch")
			}
			p.FibSerial += omp.GetWtime() - start

			start = omp.GetWtime()
			got := 0
			omp.Parallel(func(t *omp.Thread) {
				omp.Single(t, func() { got = FibTask(t, TaskFibN) })
			}, omp.NumThreads(th))
			p.FibSeconds += omp.GetWtime() - start
			if got != want {
				panic("bench: task fib mismatch")
			}

			sink := omp.NewReduction(omp.ReduceSum, 0.0)
			start = omp.GetWtime()
			omp.Parallel(func(t *omp.Thread) {
				omp.Single(t, func() {
					omp.Taskloop(t, TaskloopTrip, func(_ *omp.Thread, lo, hi int64) {
						sink.Combine(ImbalancedKernel(lo, hi))
					}, omp.Grainsize(TaskloopGrain))
				})
			}, omp.NumThreads(th))
			p.TaskloopSecs += omp.GetWtime() - start

			start = omp.GetWtime()
			omp.Parallel(func(t *omp.Thread) {
				omp.ForRange(t, TaskloopTrip, func(lo, hi int64) {
					sink.Combine(ImbalancedKernel(lo, hi))
				}, omp.Schedule(omp.Dynamic, TaskloopGrain))
			}, omp.NumThreads(th))
			p.ForDynamicSecs += omp.GetWtime() - start
		}
		f := float64(runs)
		p.FibSerial /= f
		p.FibSeconds /= f
		p.TaskloopSecs /= f
		p.ForDynamicSecs /= f
		sw.Points = append(sw.Points, p)
	}
	return sw
}

// Table renders the tasking section, markdown formatted like the
// Table I–III analogues.
func (sw *TaskSweep) Table() string {
	var b strings.Builder
	runs := 1
	if len(sw.Points) > 0 {
		runs = sw.Points[0].Runs
	}
	fmt.Fprintf(&b, "Tasking — explicit-task subsystem, fib(%d) cutoff %d and taskloop vs dynamic for (mean of %d runs)\n\n",
		TaskFibN, TaskFibCutoff, runs)
	b.WriteString("| Threads | task fib (s) | serial fib (s) | fib speedup | taskloop (s) | for dynamic (s) | taskloop/for |\n")
	b.WriteString("|---:|---:|---:|---:|---:|---:|---:|\n")
	oversub := false
	for _, p := range sw.Points {
		note := ""
		if sw.Oversubscribed[p.Threads] {
			note, oversub = " *", true
		}
		fibSpeed, ratio := 0.0, 0.0
		if p.FibSeconds > 0 {
			fibSpeed = p.FibSerial / p.FibSeconds
		}
		if p.ForDynamicSecs > 0 {
			ratio = p.TaskloopSecs / p.ForDynamicSecs
		}
		fmt.Fprintf(&b, "| %d%s | %.3f | %.3f | %.2f | %.3f | %.3f | %.2f |\n",
			p.Threads, note, p.FibSeconds, p.FibSerial, fibSpeed,
			p.TaskloopSecs, p.ForDynamicSecs, ratio)
	}
	if oversub {
		b.WriteString("\n\\* oversubscribed: more threads than processors on this host\n")
	}
	return b.String()
}
