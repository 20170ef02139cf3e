// Package bench drives the paper's evaluation (Section V): strong-scaling
// sweeps of the NPB CG, EP and IS kernels over thread counts, comparing the
// OpenMP-runtime flavour (the paper's "Zig + OpenMP") against the
// goroutine baseline (the paper's Fortran/C references). It regenerates
// the analogue of every table and figure:
//
//	Fig. 3 / Table I  — CG speedup and runtime vs threads
//	Fig. 4 / Table II — EP speedup and runtime vs threads
//	Fig. 5 / Table III — IS speedup and runtime vs threads
//
// Each configuration is run R times (the paper uses 5) and the mean
// reported, timed with the kernels' internal timers, as in the paper.
//
// The package also holds the blocked-LU and tiled-matmul kernels
// (lu.go, matmul.go) and the cross-core round-trip floor (floor.go) that
// the root package's benchmarks, examples/tile and the benchmark harness
// time.
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"gomp/internal/npb"
	"gomp/internal/npb/cg"
	"gomp/internal/npb/ep"
	"gomp/internal/npb/is"
)

// Kernels lists the supported kernel names.
var Kernels = []string{"cg", "ep", "is"}

// Impls lists the supported implementation flavours.
var Impls = []string{"serial", "omp", "goroutines"}

// Run executes one kernel/implementation/class/thread configuration and
// returns its NPB result row.
func Run(kernel, impl string, class npb.Class, threads int) (npb.Result, error) {
	switch kernel {
	case "cg":
		return runKernel(impl, class, threads,
			func() (*cg.Stats, error) { return cg.RunSerial(class) },
			func() (*cg.Stats, error) { return cg.RunParallel(class, threads) },
			func() (*cg.Stats, error) { return cg.RunGoroutines(class, threads) },
			func(s *cg.Stats) npb.Result { return s.Result(impl) })
	case "ep":
		return runKernel(impl, class, threads,
			func() (*ep.Stats, error) { return ep.RunSerial(class) },
			func() (*ep.Stats, error) { return ep.RunParallel(class, threads) },
			func() (*ep.Stats, error) { return ep.RunGoroutines(class, threads) },
			func(s *ep.Stats) npb.Result { return s.Result(impl) })
	case "is":
		return runKernel(impl, class, threads,
			func() (*is.Stats, error) { return is.RunSerial(class) },
			func() (*is.Stats, error) { return is.RunParallel(class, threads) },
			func() (*is.Stats, error) { return is.RunGoroutines(class, threads) },
			func(s *is.Stats) npb.Result { return s.Result(impl) })
	}
	return npb.Result{}, fmt.Errorf("bench: unknown kernel %q (want cg, ep or is)", kernel)
}

func runKernel[S any](impl string, class npb.Class, threads int,
	serial, omp, goroutines func() (*S, error), result func(*S) npb.Result) (npb.Result, error) {
	var st *S
	var err error
	switch impl {
	case "serial":
		st, err = serial()
	case "omp":
		st, err = omp()
	case "goroutines":
		st, err = goroutines()
	default:
		return npb.Result{}, fmt.Errorf("bench: unknown impl %q (want serial, omp or goroutines)", impl)
	}
	if err != nil {
		return npb.Result{}, err
	}
	return result(st), nil
}

// Point is one (threads, implementation) cell of a sweep: mean seconds over
// the runs, plus verification status.
type Point struct {
	Threads  int
	Impl     string
	Seconds  float64 // mean over runs
	Mops     float64
	Verified bool
	Runs     int
}

// Sweep is a full strong-scaling experiment for one kernel/class.
type Sweep struct {
	Kernel  string
	Class   npb.Class
	Threads []int
	Runs    int
	// Points[impl][threads] — means.
	Points map[string]map[int]Point
	// Oversubscribed marks thread counts above the physical processor
	// count, where scaling numbers describe scheduler behaviour rather
	// than hardware speedup (the paper's 128 threads had 128 cores).
	Oversubscribed map[int]bool
}

// RunSweep executes kernel/class across the thread list for both parallel
// flavours, runs times each, reporting means — the paper's protocol
// ("each benchmark was ran 5 times for each thread count, and the mean of
// these 5 runs is reported").
func RunSweep(kernel string, class npb.Class, threads []int, runs int, progress func(string)) (*Sweep, error) {
	if runs < 1 {
		runs = 1
	}
	sw := &Sweep{
		Kernel:         kernel,
		Class:          class,
		Threads:        append([]int(nil), threads...),
		Runs:           runs,
		Points:         map[string]map[int]Point{"omp": {}, "goroutines": {}},
		Oversubscribed: map[int]bool{},
	}
	sort.Ints(sw.Threads)
	for _, th := range sw.Threads {
		sw.Oversubscribed[th] = th > runtime.NumCPU()
		for _, impl := range []string{"omp", "goroutines"} {
			var sum, mops float64
			verified := true
			for r := 0; r < runs; r++ {
				if progress != nil {
					progress(fmt.Sprintf("%s class %s: %s threads=%d run %d/%d",
						strings.ToUpper(kernel), class, impl, th, r+1, runs))
				}
				res, err := Run(kernel, impl, class, th)
				if err != nil {
					return nil, err
				}
				sum += res.Seconds
				mops += res.MopsTotal
				verified = verified && res.Verified
			}
			sw.Points[impl][th] = Point{
				Threads:  th,
				Impl:     impl,
				Seconds:  sum / float64(runs),
				Mops:     mops / float64(runs),
				Verified: verified,
				Runs:     runs,
			}
		}
	}
	return sw, nil
}

// paperTable maps kernels to their table/figure numbers in the paper.
var paperTable = map[string][2]string{
	"cg": {"Table I", "Figure 3"},
	"ep": {"Table II", "Figure 4"},
	"is": {"Table III", "Figure 5"},
}

// RuntimeTable renders the paper's runtime table (Tables I–III): runtime
// per thread count for both flavours, markdown formatted.
func (sw *Sweep) RuntimeTable() string {
	var b strings.Builder
	names := paperTable[sw.Kernel]
	fmt.Fprintf(&b, "%s analog — %s class %s runtime when strong scaling (mean of %d runs)\n\n",
		names[0], strings.ToUpper(sw.Kernel), sw.Class, sw.Runs)
	b.WriteString("| Threads | omp runtime (s) | goroutine runtime (s) | omp/goroutine |\n")
	b.WriteString("|---:|---:|---:|---:|\n")
	for _, th := range sw.Threads {
		o := sw.Points["omp"][th]
		g := sw.Points["goroutines"][th]
		note := ""
		if sw.Oversubscribed[th] {
			note = " *"
		}
		ratio := 0.0
		if g.Seconds > 0 {
			ratio = o.Seconds / g.Seconds
		}
		fmt.Fprintf(&b, "| %d%s | %.3f%s | %.3f%s | %.2f |\n",
			th, note, o.Seconds, verMark(o), g.Seconds, verMark(g), ratio)
	}
	if anyOversubscribed(sw) {
		b.WriteString("\n\\* oversubscribed: more threads than processors on this host\n")
	}
	return b.String()
}

// SpeedupFigure renders the paper's speedup figure (Figures 3–5) as a data
// series: speedup relative to each flavour's own single-thread runtime,
// exactly how the paper plots each language against itself.
func (sw *Sweep) SpeedupFigure() string {
	var b strings.Builder
	names := paperTable[sw.Kernel]
	fmt.Fprintf(&b, "%s analog — %s class %s speedup vs threads\n\n",
		names[1], strings.ToUpper(sw.Kernel), sw.Class)
	b.WriteString("| Threads | omp speedup | goroutine speedup | ideal |\n")
	b.WriteString("|---:|---:|---:|---:|\n")
	oBase := sw.base("omp")
	gBase := sw.base("goroutines")
	for _, th := range sw.Threads {
		o := sw.Points["omp"][th]
		g := sw.Points["goroutines"][th]
		note := ""
		if sw.Oversubscribed[th] {
			note = " *"
		}
		fmt.Fprintf(&b, "| %d%s | %.2f | %.2f | %d |\n",
			th, note, speedup(oBase, o.Seconds), speedup(gBase, g.Seconds), th)
	}
	return b.String()
}

func (sw *Sweep) base(impl string) float64 {
	if p, ok := sw.Points[impl][1]; ok {
		return p.Seconds
	}
	// No 1-thread point: fall back to the smallest thread count,
	// normalising the series to it.
	if len(sw.Threads) > 0 {
		return sw.Points[impl][sw.Threads[0]].Seconds * float64(sw.Threads[0])
	}
	return 0
}

func speedup(base, t float64) float64 {
	if t <= 0 {
		return 0
	}
	return base / t
}

func verMark(p Point) string {
	if p.Verified {
		return ""
	}
	return " (UNVERIFIED)"
}

func anyOversubscribed(sw *Sweep) bool {
	for _, v := range sw.Oversubscribed {
		if v {
			return true
		}
	}
	return false
}

// PaperThreads is the thread list of the paper's tables: {1, 2, 16, 32,
// 64, 96, 128}.
var PaperThreads = []int{1, 2, 16, 32, 64, 96, 128}

// DefaultThreads returns a power-of-two ladder capped at the host's
// processor count (always including 1 and the processor count itself).
func DefaultThreads() []int {
	max := runtime.NumCPU()
	var out []int
	for t := 1; t < max; t *= 2 {
		out = append(out, t)
	}
	out = append(out, max)
	return out
}
