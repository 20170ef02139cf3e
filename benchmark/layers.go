package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"gomp/internal/core"
	"gomp/internal/driver"
	"gomp/omp"
)

// Per-layer probes: tight loops around one public call each, run in the
// traced pass after the cycles. They are measured from outside the layer,
// so a change inside it cannot move, rename or redefine them.

// perOp calls f with a growing operation count until one call lasts at
// least minDur, and returns that call's nanoseconds per operation.
func perOp(minDur time.Duration, f func(n int)) float64 {
	for n := 64; ; n *= 2 {
		start := time.Now()
		f(n)
		if d := time.Since(start); d >= minDur || n >= 1<<28 {
			return float64(d.Nanoseconds()) / float64(n)
		}
	}
}

func emptyRange(*omp.Thread, int64, int64) {}
func emptyChunk(int64, int64)              {}

// inRegion times n repetitions of op by every thread of one region: the
// cost of a construct once the team is already running.
func inRegion(minDur time.Duration, nt omp.Option, op func(t *omp.Thread)) float64 {
	return perOp(minDur, func(n int) {
		omp.Parallel(func(t *omp.Thread) {
			for i := 0; i < n; i++ {
				op(t)
			}
		}, nt)
	})
}

// onOff is the cost ratio of a runtime switch: region-storm regions timed
// with it on and off in alternating blocks, medians compared.
func onOff(minDur time.Duration, nt omp.Option, set func(bool)) float64 {
	var on, off []float64
	for block := 0; block < 4; block++ {
		for _, state := range []bool{true, false} {
			set(state)
			ns := perOp(minDur/2, func(n int) {
				for i := 0; i < n; i++ {
					omp.ParallelForRange(1024, emptyRange, nt)
				}
			})
			if state {
				on = append(on, ns)
			} else {
				off = append(off, ns)
			}
		}
	}
	return median(on) / median(off)
}

// probeRuntime measures the omp and kmp layers on empty bodies.
func probeRuntime(threads int, minDur time.Duration, m map[string]float64) {
	nt := omp.NumThreads(threads)
	m["omp.fork_join_ns"] = perOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			omp.Parallel(func(*omp.Thread) {}, nt)
		}
	})
	m["omp.fork_join_1t_ns"] = perOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			omp.Parallel(func(*omp.Thread) {}, omp.NumThreads(1))
		}
	})
	m["omp.parallel_for_ns"] = perOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			omp.ParallelForRange(1024, emptyRange, nt)
		}
	})
	m["kmp.barrier_ns"] = inRegion(minDur, nt, func(t *omp.Thread) { omp.Barrier(t) })
	m["omp.for_static_ns"] = inRegion(minDur, nt, func(t *omp.Thread) { omp.ForRange(t, 1024, emptyChunk) })
	m["omp.for_nowait_ns"] = inRegion(minDur, nt, func(t *omp.Thread) { omp.ForRange(t, 1024, emptyChunk, omp.NoWait()) })
	cell := omp.NewReduction(omp.ReduceSum, 0.0)
	m["omp.reduce_combine_ns"] = inRegion(minDur, nt, func(*omp.Thread) { cell.Combine(1) })

	// One chunk per iteration: wall time of the loop over its trip count is
	// the team-wide cost of handing out one chunk.
	m["kmp.dispatch.chunk_ns"] = perOp(minDur, func(n int) {
		omp.ParallelForRange(int64(n), emptyRange, nt, omp.Schedule(omp.Dynamic, 1))
	})
	m["kmp.dispatch.mono_chunk_ns"] = perOp(minDur, func(n int) {
		omp.ParallelForRange(int64(n), emptyRange, nt, omp.Schedule(omp.Dynamic, 1, omp.Monotonic))
	})
	m["kmp.ordered_ns"] = perOp(minDur, func(n int) {
		omp.ParallelFor(int64(n), func(t *omp.Thread, _ int64) { omp.Ordered(t, nop) },
			nt, omp.OrderedClause(), omp.Schedule(omp.Dynamic, 1))
	})

	m["trace.flight_overhead_ratio"] = onOff(minDur, nt, omp.SetFlightRecorder)
	omp.SetFlightRecorder(true) // the default
	m["trace.labels_overhead_ratio"] = onOff(minDur, nt, omp.SetProfileLabels)
}

// probeFrontEnd measures core, driver and the gompcc command on the
// generated module b, which is already on disk.
func probeFrontEnd(b *buildInstance, minDur time.Duration, m map[string]float64) error {
	env := b.env
	// core: one sequential pass over the pragma-bearing files.
	var ms0, ms1 runtime.MemStats
	var inBytes, outBytes int
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for _, f := range b.c.files {
		if f.directives == 0 {
			continue
		}
		tr, err := core.Transform(f.src, core.Options{Filename: f.rel})
		if err != nil {
			return err
		}
		inBytes += len(f.src)
		outBytes += len(tr.Output)
	}
	sec := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	m["core.transform_mb_s"] = float64(inBytes) / 1e6 / sec
	m["core.transform_us_per_directive"] = sec * 1e6 / float64(b.c.directives)
	m["core.allocs_per_file"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(b.c.pragma)
	m["core.expansion_ratio"] = float64(outBytes) / float64(inBytes)
	scanNs := perOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			core.ContainsPragma(b.c.files[i%len(b.c.files)].src)
		}
	})
	m["core.contains_pragma_mb_s"] = float64(b.c.bytes) / float64(len(b.c.files)) / scanNs * 1e3

	// driver: cold at one job and at T, then warm against its own cache.
	dir := filepath.Dir(b.src)
	cold := func(jobs int) (float64, *driver.Report, error) {
		out := filepath.Join(dir, "probe-out")
		os.RemoveAll(out)
		start := time.Now()
		rep, err := b.driverRun(out, jobs)
		return time.Since(start).Seconds(), rep, err
	}
	jobs1, _, err := cold(1)
	if err != nil {
		return err
	}
	coldT, rep, err := cold(env.threads)
	if err != nil {
		return err
	}
	m["driver.jobs1_s"] = jobs1
	m["driver.overhead_ratio"] = float64(env.threads) * coldT * 1e9 / float64(rep.TransformNs)
	cfg := driver.Config{Module: b.src, OutDir: filepath.Join(dir, "probe-warm"), Jobs: env.threads, CacheDir: filepath.Join(dir, "probe-cache")}
	var warm []float64
	for i := 0; i < 4; i++ { // the first pass fills the cache
		d, err := driver.New(cfg)
		if err != nil {
			return err
		}
		start := time.Now()
		if rep, err = d.Run(); err != nil {
			return err
		}
		if i > 0 {
			warm = append(warm, time.Since(start).Seconds())
		}
	}
	m["driver.warm_s"] = median(warm)
	m["driver.cache_hit_ratio"] = float64(rep.Cached) / float64(rep.Files)

	// gompcc: the built command, process start included.
	bin := filepath.Join(env.root, ".bench_build", "bin", "gompcc")
	if err := goTool(env.root, "build", "-o", bin, "./cmd/gompcc"); err != nil {
		return err
	}
	out := filepath.Join(dir, "probe-cli")
	start = time.Now()
	cmd := exec.Command(bin, "-module", b.src, "-outdir", out, "-jobs", strconv.Itoa(env.threads), "-cache", "off")
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("%s: %v\n%s", bin, err, msg)
	}
	m["gompcc.cli_s"] = time.Since(start).Seconds()
	start = time.Now()
	if err := b.buildTree(out); err != nil {
		return err
	}
	m["gompcc.gobuild_s"] = time.Since(start).Seconds()
	return nil
}
