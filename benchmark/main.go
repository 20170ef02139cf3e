// Command benchmark is the repository's benchmark: six workloads over the
// pragma → runtime stack, each measured by fixed-count cycles that run this
// repository's runtime, a serial reference and a goroutine baseline side
// by side, so that the gated ratios are taken inside one cycle and host
// drift cancels. See README.md in this directory.
//
//	benchmark -workload npb_cg -seed 1 -seconds 10 -trace 0   one workload; last stdout line is the result
//	benchmark -seed 1                                         all six, end-to-end and traced, as tables
//	benchmark -selfcheck                                      all six twice (A/A) against their own bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"gomp/internal/trace"
	"gomp/omp"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	root     string // checkout root, absolute
}

// metric is one reported number; result is the contract's last line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits and perLayerUnits name every metric the benchmark prints;
// BENCHMARK.json declares the same names and units (the test compares).
var endToEndUnits = map[string]string{
	"setup_s": "s", "speedup": "ratio", "vs_baseline": "ratio", "alloc_mb": "MiB",
}

var perLayerUnits = map[string]string{
	"omp.fork_join_ns": "ns", "omp.fork_join_1t_ns": "ns", "omp.parallel_for_ns": "ns",
	"kmp.barrier_ns": "ns", "omp.for_static_ns": "ns", "omp.for_nowait_ns": "ns", "omp.reduce_combine_ns": "ns",
	"kmp.barrier_wait_share": "ratio", "kmp.regions": "count", "kmp.barriers": "count",
	"kmp.dispatch.chunk_ns": "ns", "kmp.dispatch.steals": "count", "kmp.dispatch.steal_success_ratio": "ratio", "kmp.dispatch.imbalance": "ratio",
	"kmp.dispatch.mono_chunk_ns": "ns", "kmp.ordered_ns": "ns",
	"omp.solve_1t_s": "s", "omp.overhead_1t": "ratio", "omp.parallel_eff": "ratio",
	"trace.flight_overhead_ratio": "ratio", "trace.collector_overhead_ratio": "ratio", "trace.labels_overhead_ratio": "ratio", "kmp.accounted_share": "ratio",
	"core.transform_mb_s": "MB/s", "core.transform_us_per_directive": "us", "core.allocs_per_file": "count", "core.expansion_ratio": "ratio", "core.contains_pragma_mb_s": "MB/s",
	"driver.warm_s": "s", "driver.cache_hit_ratio": "ratio", "driver.jobs1_s": "s", "driver.overhead_ratio": "ratio", "gompcc.cli_s": "s", "gompcc.gobuild_s": "s",
	"ref.serial_s": "s", "ref.baseline_s": "s", "npb.setup_gen_s": "s", "npb.mops": "Mop/s", "npb.ops_computed": "count", "npb.bytes_computed": "count", "npb.ops_per_byte": "ratio",
	"proc.peak_rss_mb": "MiB", "proc.cpu_util": "ratio", "proc.gc_cycles": "count", "solve.median_s": "s", "solve.q1_s": "s", "solve.q3_s": "s", "solve.p90_s": "s", "host.scaling": "ratio", "host.loadavg": "count",
}

// runner carries one workload run.
type runner struct {
	o    options
	w    workload
	env  *runEnv
	host hostInfo
	log  io.Writer
	inst instance
	// afterOmp, when set, runs after every omp solve while its span is open.
	afterOmp func()

	attempted, failed int
}

// timed solves one flavour once, verifies the output and counts both.
func (r *runner) timed(flavour, threads int) float64 {
	runtime.GC() // so that one solve's garbage is not collected inside the next
	end := r.env.tr.span("solve." + flavourNames[flavour])
	sec, err := r.inst.solve(flavour, threads)
	if flavour == fOmp && r.afterOmp != nil {
		r.afterOmp()
	}
	end()
	r.attempted++
	if err == nil {
		end = r.env.tr.span("verify")
		err = r.inst.verify(flavour)
		end()
	}
	if err != nil {
		r.failed++
		fmt.Fprintf(r.log, "FAILED %s %s: %v\n", r.w.name, flavourNames[flavour], err)
	}
	return sec
}

// setup is one cold set-up: generate the inputs from the seed, drop the
// runtime's warm teams, run the first omp solve to verified completion. It
// replaces r.inst and returns the generation and total seconds.
func (r *runner) setup() (gen, total float64, err error) {
	if r.inst != nil {
		r.inst.close()
		r.inst = nil
	}
	runtime.GC() // the previous set-up's garbage is not this one's cost
	start := time.Now()
	end := r.env.tr.span("setup.gen")
	r.inst, err = r.w.gen(r.env, r.o.seed)
	end()
	if err != nil {
		return 0, 0, err
	}
	gen = time.Since(start).Seconds()
	omp.TrimTeams()
	end = r.env.tr.span("setup.first_solve")
	r.timed(fOmp, r.env.threads)
	end()
	return gen, time.Since(start).Seconds(), nil
}

// cycles holds what the timed cycles measured, one entry per cycle.
type cycles struct {
	sec [nFlavours][]float64
	// Every other cycle of the traced pass also solves omp at one thread;
	// these three series are paired with each other.
	omp1, omp1Serial, omp1OmpT []float64
	wall                       float64 // of the whole phase
	cpu                        float64 // user+system seconds over the phase
}

// run executes n cycles: the three flavours once each, in an order that
// rotates with the cycle so no flavour always runs on a cold or warm cache.
func (r *runner) run(n int, oneThread bool) cycles {
	var c cycles
	start, cpu0 := time.Now(), cpuSeconds()
	// Guard, not protocol: a host half again as slow as the one the counts
	// were tuned on stops early rather than overrun the harness.
	deadline := start.Add(time.Duration(1.5 * r.o.seconds * float64(time.Second)))
	for i := 0; i < n; i++ {
		if i >= 10 && time.Now().After(deadline) {
			fmt.Fprintf(r.log, "time guard: stopped after %d of %d cycles\n", i, n)
			break
		}
		if r.env.tr != nil {
			r.env.tr.cycle = i
		}
		end := r.env.tr.span("cycle")
		var sec [nFlavours]float64
		for k := 0; k < nFlavours; k++ {
			f := (i + k) % nFlavours
			sec[f] = r.timed(f, r.env.threads)
			c.sec[f] = append(c.sec[f], sec[f])
		}
		if oneThread && i%2 == 0 {
			c.omp1 = append(c.omp1, r.timed(fOmp, 1))
			c.omp1Serial = append(c.omp1Serial, sec[fSerial])
			c.omp1OmpT = append(c.omp1OmpT, sec[fOmp])
		}
		end()
	}
	c.wall, c.cpu = time.Since(start).Seconds(), cpuSeconds()-cpu0
	return c
}

func (o options) cycleCount(w workload) int {
	if o.quick {
		return 3
	}
	return max(10, int(math.Round(float64(w.cycles)*o.seconds/10)))
}

// runWorkload is one invocation of the contract: one workload, one seed,
// end-to-end metrics (trace off) or per-layer metrics (trace on).
func runWorkload(o options, log io.Writer) (*result, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	scratch := filepath.Join(o.root, ".bench_build", "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	r := &runner{o: o, w: w, log: log, host: readHost(),
		env: &runEnv{threads: benchThreads(), root: o.root, scratch: scratch}}
	defer func() {
		if r.inst != nil {
			r.inst.close()
		}
	}()
	if strings.HasPrefix(w.name, "npb_") {
		if err := checkPins(o.root); err != nil {
			return nil, err
		}
	}
	if !o.quick {
		if err := canary(&r.host); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(log, "%s seed=%d T=%d nproc=%d GOMAXPROCS=%d %s %q load=%.2f scaling=%.3f host_degraded=%v\n",
		w.name, o.seed, r.host.Threads, r.host.NumCPU, r.host.GOMAXPROCS, r.host.GoVersion, r.host.CPUModel,
		r.host.LoadStart, r.host.Scaling, r.host.HostDegraded)
	if o.trace {
		r.env.tr = &tracer{on: true, cycle: -1, t0: time.Now()}
	}

	// Cold set-ups, several so that their median can be gated.
	nSetup := 7
	if o.quick {
		nSetup = 1
	} else if o.trace {
		nSetup = 3
	}
	var gens, setups []float64
	for i := 0; i < nSetup; i++ {
		gen, total, err := r.setup()
		if err != nil {
			return nil, err
		}
		gens, setups = append(gens, gen), append(setups, total)
	}

	res := &result{Metrics: map[string]metric{}}
	if !o.trace {
		c := r.run(o.cycleCount(w), false)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		done, planned := len(c.sec[fOmp]), o.cycleCount(w)
		// Whole-process allocation; a guard-truncated phase is scaled to the
		// planned count so that stopping early never reads as allocating less.
		alloc := float64(ms.TotalAlloc) / (1 << 20) * float64(planned) / float64(done)
		values := map[string]float64{
			"setup_s":     median(setups),
			"speedup":     median(ratios(c.sec[fSerial], c.sec[fOmp])),
			"vs_baseline": median(ratios(c.sec[fOmp], c.sec[fBaseline])),
			"alloc_mb":    alloc,
		}
		for name, v := range values {
			res.Metrics[name] = metric{v, endToEndUnits[name]}
		}
		for f, name := range flavourNames {
			xs := c.sec[f]
			tail, tailV := tailPercentile(xs)
			fmt.Fprintf(log, "  %-8s n=%d median=%.6fs q1=%.6fs q3=%.6fs %s=%.6fs\n",
				name, len(xs), median(xs), quantile(xs, 0.25), quantile(xs, 0.75), tail, tailV)
		}
	} else {
		values, err := r.tracedPass(gens)
		if err != nil {
			return nil, err
		}
		for name, unit := range perLayerUnits {
			res.Metrics[name] = metric{values[name], unit}
		}
	}
	if dv, ok := r.inst.(interface{ deepVerify() error }); ok {
		if err := dv.deepVerify(); err != nil {
			// The reference every solve was compared with is itself wrong.
			r.failed = r.attempted
			fmt.Fprintf(log, "FAILED %s: %v\n", w.name, err)
		}
	}
	if o.trace {
		r.host.LoadEnd = loadavg()
		path := filepath.Join(o.root, "benchmark", "out", "trace-"+w.name+".json")
		if err := writeTrace(path, traceFile{w.name, o.seed, r.host.Threads, r.host, r.env.tr.spans}); err != nil {
			return nil, err
		}
	}
	res.Correct, res.Attempted, res.Failed = r.failed == 0, r.attempted, r.failed
	return res, nil
}

// tracedPass produces every per-layer metric: a shorter untraced phase
// (with omp@1 solves), ten cycles with the runtime's collector attached and
// benchmark-side spans on, then the layer probes.
func (r *runner) tracedPass(gens []float64) (map[string]float64, error) {
	o, T := r.o, float64(r.env.threads)
	probeDur, nTraced := 50*time.Millisecond, 10
	if o.quick {
		probeDur, nTraced = time.Millisecond, 1
	}
	r.env.tr.on = false
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain := r.run(max(3, o.cycleCount(r.w)/3), true)
	runtime.ReadMemStats(&ms1)

	r.env.tr.on = true
	p := trace.New(trace.WithRingSize(1 << 16))
	p.Start()
	// The collector's counters are read at the same boundary as the
	// solve.omp span, so each span carries its own counts.
	prev := p.Metrics().Snapshot()
	r.afterOmp = func() {
		p.Flush()
		s := p.Metrics().Snapshot()
		r.env.tr.counts(map[string]int64{
			"forks": s.Forks - prev.Forks, "barriers": s.Barriers - prev.Barriers,
			"barrier_wait_ns": s.BarrierWaitNs - prev.BarrierWaitNs, "loop_ns": s.LoopNs - prev.LoopNs,
			"loop_steals": s.LoopSteals - prev.LoopSteals, "stolen_iters": s.StolenIters - prev.StolenIters,
		})
		prev = s
	}
	traced := r.run(nTraced, false)
	r.afterOmp = nil
	p.Stop()
	var ompWall float64
	for _, s := range traced.sec[fOmp] {
		ompWall += s
	}
	snap := p.Metrics().Snapshot()
	if snap.RingDrops > 0 {
		fmt.Fprintf(r.log, "collector dropped %d events: kmp.* counts are lower bounds\n", snap.RingDrops)
	}
	n := float64(len(traced.sec[fOmp]))
	var maxBusy, meanBusy float64
	for _, a := range p.Analyses() {
		maxBusy += float64(a.MaxBusyNs)
		meanBusy += float64(a.MeanBusyNs)
	}

	m := map[string]float64{}
	probeRuntime(r.env.threads, probeDur, m)
	r.env.tr.on = false
	fe, own := r.inst.(*buildInstance)
	if !own {
		inst, err := genBuild(r.env, o.seed)
		if err != nil {
			return nil, err
		}
		defer inst.close()
		fe = inst.(*buildInstance)
	}
	if err := probeFrontEnd(fe, probeDur, m); err != nil {
		return nil, err
	}

	m["kmp.regions"] = float64(snap.Forks) / n
	m["kmp.barriers"] = float64(snap.Barriers) / n
	m["kmp.barrier_wait_share"] = float64(snap.BarrierWaitNs) / 1e9 / (T * ompWall)
	m["kmp.accounted_share"] = float64(snap.LoopNs+snap.BarrierWaitNs) / 1e9 / (T * ompWall)
	m["kmp.dispatch.steals"] = float64(snap.LoopSteals) / n
	// Attempts are not exported; every thread ends every dynamic loop with
	// one sweep of its T-1 teammates that finds nothing, which gives the
	// least number of failed attempts there can have been.
	if attempts := float64(snap.LoopSteals) + float64(snap.LoopInits)*(T-1); attempts > 0 {
		m["kmp.dispatch.steal_success_ratio"] = float64(snap.LoopSteals) / attempts
	}
	if meanBusy > 0 {
		m["kmp.dispatch.imbalance"] = maxBusy / meanBusy
	}
	m["trace.collector_overhead_ratio"] = median(traced.sec[fOmp]) / median(plain.sec[fOmp])

	m["omp.solve_1t_s"] = median(plain.omp1)
	m["omp.overhead_1t"] = median(ratios(plain.omp1, plain.omp1Serial))
	eff := ratios(plain.omp1, plain.omp1OmpT)
	for i := range eff {
		eff[i] /= T
	}
	m["omp.parallel_eff"] = median(eff)

	m["ref.serial_s"] = median(plain.sec[fSerial])
	m["ref.baseline_s"] = median(plain.sec[fBaseline])
	m["npb.setup_gen_s"] = median(gens)
	ops, bytes := r.inst.work()
	m["npb.ops_computed"], m["npb.bytes_computed"] = ops, bytes
	m["npb.mops"] = ops / 1e6 / median(plain.sec[fOmp])
	if bytes > 0 {
		m["npb.ops_per_byte"] = ops / bytes
	}

	m["proc.peak_rss_mb"] = peakRSSMiB()
	m["proc.cpu_util"] = plain.cpu / (T * plain.wall)
	m["proc.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["solve.median_s"] = median(plain.sec[fOmp])
	m["solve.q1_s"] = quantile(plain.sec[fOmp], 0.25)
	m["solve.q3_s"] = quantile(plain.sec[fOmp], 0.75)
	m["solve.p90_s"] = quantile(plain.sec[fOmp], 0.90)
	m["host.scaling"] = r.host.Scaling
	m["host.loadavg"] = loadavg()
	return m, nil
}

// The runtime reads OMP_* and GOMP_* once, at start-up, and sizes its
// default team from GOMAXPROCS. cleanEnv re-executes the benchmark with
// those settled — the "own child process" of the protocol — unless the
// environment is already the one it would build.
func cleanEnv() {
	T := fmt.Sprint(benchThreads())
	dirty := os.Getenv("GOMAXPROCS") != T || os.Getenv("GOGC") != "100"
	var env []string
	for _, kv := range os.Environ() {
		name, _, _ := strings.Cut(kv, "=")
		switch {
		case strings.HasPrefix(name, "OMP_") || strings.HasPrefix(name, "GOMP_"):
			dirty = true
		case name != "GOMAXPROCS" && name != "GOGC":
			env = append(env, kv)
		}
	}
	if !dirty {
		return
	}
	self, err := os.Executable()
	if err == nil {
		err = syscall.Exec(self, os.Args, append(env, "GOMAXPROCS="+T, "GOGC=100"))
	}
	fmt.Fprintln(os.Stderr, "benchmark: cannot re-execute with a clean environment:", err)
	os.Exit(2)
}

func main() {
	cleanEnv()
	debug.SetGCPercent(100)
	var o options
	var traceFlag int
	var selfcheck bool
	flag.StringVar(&o.workload, "workload", "", "run this workload only and print the result object as the last line")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 12, "length of the timed phase the fixed cycle counts are scaled to")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced pass")
	flag.BoolVar(&o.quick, "quick", false, "smoke mode: three cycles, one set-up, no canary")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload twice and compare the two runs against the declared bounds")
	flag.StringVar(&o.root, "root", ".", "checkout root (the directory holding go.mod and BENCHMARK.json)")
	flag.Parse()
	o.trace = traceFlag != 0
	root, err := filepath.Abs(o.root)
	if err == nil {
		_, err = os.Stat(filepath.Join(root, "internal", "kmp"))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -root is not a checkout of the repository:", err)
		os.Exit(2)
	}
	o.root = root

	if o.workload == "" {
		os.Exit(suite(o, selfcheck))
	}
	res, err := runWorkload(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printMetrics(o.workload, res)
	line, err := json.Marshal(res)
	if err != nil { // a NaN: some series was empty
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
