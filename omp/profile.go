package omp

import (
	"fmt"
	"os"

	"gomp/internal/kmp"
	"gomp/internal/trace"
)

// Profiling entry points for user programs and for the compiler's
// -profile mode. The heavy machinery lives in the internal trace
// package; these wrappers exist because preprocessed user code can only
// import the public module surface, and `gompcc -profile` injects calls
// to them with real source coordinates.

// Profile starts the process-wide profiler and returns a stop function
// that writes a gprof-style flat profile of every parallel region, loop,
// task construct and instrumented function to stderr. Typical use — and
// what `gompcc -profile` injects into main:
//
//	defer omp.Profile()()
//
// Environment switches honoured by the stop function:
//
//	GOMP_TRACE_JSON=<path>  also export the full event timeline as
//	                        Chrome trace-event JSON to <path>, loadable
//	                        in Perfetto (ui.perfetto.dev) or
//	                        chrome://tracing, with one track per runtime
//	                        thread and work steals drawn as flow arrows.
//	GOMP_METRICS=1          also print the runtime metrics in the
//	                        OpenMetrics exposition /debug/gomp/metrics
//	                        serves (fork/barrier/steal/task counters,
//	                        wait-time histograms).
//	GOMP_DEBUG_ADDR=<addr>  additionally serve the live /debug/gomp
//	                        endpoint suite (status, OpenMetrics, profile
//	                        and timeline windows, imbalance analysis) on
//	                        <addr> for the lifetime of the program — see
//	                        ServeDebug. ":0" picks an ephemeral port;
//	                        the bound address is printed to stderr.
func Profile() func() {
	jsonPath := os.Getenv("GOMP_TRACE_JSON")
	var opts []trace.Option
	if jsonPath != "" {
		opts = append(opts, trace.WithTimeline(0))
	}
	p := trace.New(opts...)
	p.Start()
	// While profiling, also label team goroutines for pprof so a CPU
	// profile taken during the run attributes samples to pragma
	// locations; restored to its previous setting at stop.
	prevLabels := kmp.ProfLabelsEnabled()
	kmp.SetProfLabels(true)
	var dbg *DebugServer
	if addr := os.Getenv("GOMP_DEBUG_ADDR"); addr != "" {
		var err error
		if dbg, err = ServeDebug(addr); err != nil {
			fmt.Fprintf(os.Stderr, "gomp: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "gomp: debug server on http://%s/debug/gomp/\n", dbg.Addr)
		}
	}
	return func() {
		kmp.SetProfLabels(prevLabels)
		if dbg != nil {
			dbg.Close()
		}
		p.Stop()
		fmt.Fprintf(os.Stderr, "gomp profile:\n%s", p.Report())
		if os.Getenv("GOMP_METRICS") != "" {
			p.WriteOpenMetrics(os.Stderr)
		}
		if jsonPath != "" {
			f, err := os.Create(jsonPath)
			if err == nil {
				err = p.WriteTimeline(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "gomp: timeline export failed: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "gomp: timeline written to %s\n", jsonPath)
			}
		}
	}
}

// ZoneAt opens a profiling span attributed to a source location and
// returns its closer; `gompcc -profile` injects
// `defer omp.ZoneAt(file, line, funcName)()` into functions containing
// pragmas. When no profiler runs both calls are no-ops.
func ZoneAt(file string, line int, name string) func() {
	return trace.ZoneAt(file, line, name)
}
