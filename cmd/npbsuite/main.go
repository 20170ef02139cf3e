// Command npbsuite regenerates the paper's evaluation: strong-scaling
// sweeps of NPB CG, EP and IS comparing the OpenMP-runtime flavour against
// the goroutine baseline, printed as the analogues of the paper's
// Tables I–III and Figures 3–5.
//
// Usage:
//
//	npbsuite                                  # all kernels, class S, host thread ladder
//	npbsuite -kernel cg -class A -runs 5      # one kernel, paper's 5-run protocol
//	npbsuite -paper-threads                   # the paper's {1,2,16,32,64,96,128}
//	npbsuite -threads 1,2,4,8                 # explicit thread list
//
// Thread counts above the host's processor count run oversubscribed and
// are flagged; the paper's 128-thread points had 128 physical cores.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gomp/internal/bench"
	"gomp/internal/npb"
	"gomp/internal/trace"
)

// jsonReport is the machine-readable form of one npbsuite invocation,
// written as BENCH_<class>.json so successive PRs accumulate a perf
// trajectory that tooling can diff without re-parsing the human tables.
type jsonReport struct {
	Timestamp  string         `json:"timestamp"`
	Class      string         `json:"class"`
	Threads    []int          `json:"threads"`
	Runs       int            `json:"runs"`
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Host       hostInfo       `json:"host"`
	Kernels    []*bench.Sweep `json:"kernels"`
	// Metrics holds one runtime-metrics snapshot per kernel from an
	// extra instrumented pass at the largest thread count — fork and
	// steal counts, barrier-wait time, task statistics — kept out of
	// the timed sweeps so the runtime columns stay comparable across
	// revisions.
	Metrics map[string]*trace.MetricsSnapshot `json:"metrics,omitempty"`
}

// hostInfo pins the measurement environment into the report: numbers
// from two BENCH json files are only comparable when this block
// matches, and perf-trajectory tooling can refuse to diff across hosts.
type hostInfo struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// CPUModel is the host CPU's marketing name ("model name" from
	// /proc/cpuinfo on Linux), empty where unavailable.
	CPUModel string `json:"cpu_model,omitempty"`
}

func readHostInfo() hostInfo {
	return hostInfo{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel extracts the CPU's model name from /proc/cpuinfo; empty on
// hosts without one (non-Linux, restricted /proc).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func main() {
	var (
		kernels  = flag.String("kernel", "cg,ep,is", "comma-separated kernels to sweep")
		classF   = flag.String("class", "S", "problem class: S, W, A, B, C")
		threadsF = flag.String("threads", "", "comma-separated thread counts (default: host ladder)")
		paperTh  = flag.Bool("paper-threads", false, "use the paper's thread counts {1,2,16,32,64,96,128}")
		runs     = flag.Int("runs", 1, "repetitions per configuration (paper uses 5)")
		jsonOut  = flag.Bool("json", false, "also write machine-readable results to BENCH_<class>.json")
		metricsF = flag.Bool("metrics", true, "with -json, embed a per-kernel runtime-metrics block from an extra instrumented pass")
		quiet    = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	class, err := npb.ParseClass(*classF)
	if err != nil {
		fail(err)
	}
	threads := bench.DefaultThreads()
	if *paperTh {
		threads = bench.PaperThreads
	}
	if *threadsF != "" {
		threads, err = parseInts(*threadsF)
		if err != nil {
			fail(err)
		}
	}
	progress := func(msg string) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "\r\033[K%s", msg)
		}
	}

	report := jsonReport{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Class:      class.String(),
		Threads:    threads,
		Runs:       *runs,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Host:       readHostInfo(),
	}

	exit := 0
	for _, kernel := range strings.Split(*kernels, ",") {
		kernel = strings.TrimSpace(kernel)
		if kernel == "" {
			continue
		}
		sw, err := bench.RunSweep(kernel, class, threads, *runs, progress)
		if err != nil {
			fail(err)
		}
		if !*quiet {
			fmt.Fprint(os.Stderr, "\r\033[K")
		}
		fmt.Println(sw.RuntimeTable())
		fmt.Println(sw.SpeedupFigure())
		report.Kernels = append(report.Kernels, sw)
		if *jsonOut && *metricsF && len(threads) > 0 {
			th := threads[0]
			for _, t := range threads {
				if t > th {
					th = t
				}
			}
			progress(fmt.Sprintf("%s class %s: metrics pass threads=%d", strings.ToUpper(kernel), class, th))
			snap, err := bench.MeasureMetrics(kernel, class, th)
			if err != nil {
				fail(err)
			}
			if report.Metrics == nil {
				report.Metrics = map[string]*trace.MetricsSnapshot{}
			}
			report.Metrics[kernel] = snap
		}
		for _, pts := range sw.Points {
			for _, p := range pts {
				if !p.Verified {
					exit = 1
				}
			}
		}
	}
	if *jsonOut {
		path := fmt.Sprintf("BENCH_%s.json", class)
		if err := writeJSON(path, &report); err != nil {
			fail(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	os.Exit(exit)
}

func writeJSON(path string, report *jsonReport) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "npbsuite:", err)
	os.Exit(1)
}
