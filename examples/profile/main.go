// Profiling: the paper's future-work item made real — runtime-driven
// instrumentation "providing functionality similar to that of gprof"
// (Section VI). A profiler installs the runtime's OMPT-style collector,
// an NPB CG run executes underneath it, and three views come out:
//
//   - a gprof-style flat profile attributing time, barrier waits, loop
//     initialisations and steals to each parallel region,
//
//   - the runtime metrics (fork/steal/task counters, wait-time
//     histograms) in the OpenMetrics exposition /debug/gomp/metrics
//     serves,
//
//   - a Chrome trace-event timeline — one track per runtime thread,
//     steals drawn as flow arrows — written to gomp-trace.json and
//     loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
//     go run ./examples/profile
package main

import (
	"fmt"
	"io"
	"os"

	"gomp/internal/npb"
	"gomp/internal/npb/cg"
	"gomp/internal/trace"
	"gomp/omp"
)

func main() {
	if err := run(os.Stdout, "gomp-trace.json"); err != nil {
		fmt.Fprintln(os.Stderr, "profile:", err)
		os.Exit(1)
	}
}

// run executes the demo workload under a profiler and writes the flat
// profile and metrics exposition to w and the timeline to tracePath
// (skipped when empty).
func run(w io.Writer, tracePath string) error {
	prof := trace.New(trace.WithTimeline(0))
	prof.Start()
	defer prof.Stop()

	// An application-level zone (the Tracy usage pattern) around setup.
	endSetup := prof.Zone("makea (matrix generation)")
	m, err := cg.MakeA(npb.ClassS)
	if err != nil {
		return err
	}
	endSetup()

	// A few instrumented parallel regions of our own.
	n := m.N
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	for rep := 0; rep < 20; rep++ {
		omp.Parallel(func(t *omp.Thread) {
			omp.ForRange(t, int64(n), func(lo, hi int64) {
				for j := int(lo); j < int(hi); j++ {
					sum := 0.0
					for k := m.RowStr[j]; k < m.RowStr[j+1]; k++ {
						sum += m.A[k] * x[m.ColIdx[k]]
					}
					y[j] = sum
				}
			}, omp.Schedule(omp.Dynamic, 128))
			omp.Barrier(t)
		}, omp.NumThreads(4), omp.Loc("profile.go", 48, "parallel spmv"))
	}

	// And a full instrumented benchmark run.
	endCG := prof.Zone("cg class S (omp flavour)")
	st, err := cg.RunParallel(npb.ClassS, 4)
	if err != nil {
		return err
	}
	endCG()

	prof.Stop()
	fmt.Fprintf(w, "CG class S on 4 threads: zeta=%.10f verified=%v\n\n", st.Zeta, cg.Verify(st))
	fmt.Fprintln(w, "flat profile (gprof-style):")
	fmt.Fprint(w, prof.Report())

	fmt.Fprintln(w, "\nruntime metrics (OpenMetrics):")
	if err := prof.WriteOpenMetrics(w); err != nil {
		return err
	}

	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		err = prof.WriteTimeline(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\ntimeline written to %s — load it at ui.perfetto.dev or chrome://tracing\n", tracePath)
	}
	return nil
}
