package gomp

// The benchmarks CI runs (`go test -run '^$' -bench . -benchtime 1x .`):
// Table I's CG cells with and without a collector, and one target per
// runtime subsystem — worksharing, task dependences, loop transformations,
// the module driver, fork/join, the barrier and the atomic directive.
//
// The problem class defaults to S so the full suite is CI-sized; set
// NPB_CLASS=W (or A…) to scale up. cmd/npbsuite prints all of the paper's
// Tables I–III and Figures 3–5 with its full 5-run mean protocol, and
// benchmark/ is the end-to-end harness. Thread ladders are capped at the
// host's processor count; the paper's 128-thread points had 128 physical
// cores.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"gomp/internal/bench"
	"gomp/internal/driver"
	"gomp/internal/npb"
	"gomp/internal/trace"
	"gomp/omp"
)

func benchClass() npb.Class {
	if s := os.Getenv("NPB_CLASS"); s != "" {
		if c, err := npb.ParseClass(s); err == nil {
			return c
		}
	}
	return npb.ClassS
}

func benchThreads() []int {
	max := runtime.NumCPU()
	var out []int
	for _, t := range []int{1, 2, 4, 8} {
		if t <= max {
			out = append(out, t)
		}
	}
	return out
}

// benchTable measures runtime per (impl, threads) cell — the shape of the
// paper's Tables I–III.
func benchTable(b *testing.B, kernel string) {
	class := benchClass()
	for _, impl := range []string{"omp", "goroutines"} {
		for _, threads := range benchThreads() {
			b.Run(fmt.Sprintf("%s/threads=%d", impl, threads), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := bench.Run(kernel, impl, class, threads)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Verified {
						b.Fatalf("%s/%s threads=%d failed verification", kernel, impl, threads)
					}
					b.ReportMetric(res.Seconds, "kernel-s/op")
					b.ReportMetric(res.MopsTotal, "Mop/s")
				}
			})
		}
	}
}

// BenchmarkTable1CG regenerates Table I: CG runtime when strong scaling.
func BenchmarkTable1CG(b *testing.B) { benchTable(b, "cg") }

// BenchmarkTable1CGTraced re-runs Table I's CG omp cells with the
// OMPT-style collector installed (flat-profile aggregation, no retained
// timeline) — the enabled-overhead guard for the observability layer.
// Compare kernel-s/op against BenchmarkTable1CG's matching omp cells;
// the documented budget is <10% (measured ~1–3% on class S, see
// omp/doc.go's Observability chapter). Disabled-tracing cost is covered by
// BenchmarkTable1CG itself: every event site degrades to one atomic
// pointer load when no collector is installed.
func BenchmarkTable1CGTraced(b *testing.B) {
	p := trace.New()
	p.Start()
	defer p.Stop()
	class := benchClass()
	for _, threads := range benchThreads() {
		b.Run(fmt.Sprintf("omp/threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.Run("cg", "omp", class, threads)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Verified {
					b.Fatalf("cg/omp threads=%d failed verification under tracing", threads)
				}
				b.ReportMetric(res.Seconds, "kernel-s/op")
			}
		})
	}
	b.StopTimer()
	// Serialised (team-of-one) regions emit no fork events, so on a
	// single-CPU host — where benchThreads() is just {1} — zero forks is
	// the expected outcome, not a broken collector.
	if p.Metrics().Forks.Value() == 0 && len(benchThreads()) > 1 {
		b.Fatal("collector installed but no fork events recorded")
	}
}

// ---------------------------------------------------------------------
// Barrier: cost of one full-team rendezvous inside a running region, at
// team sizes 1, 2, 4 and an always-oversubscribed 8.

// benchBarrier times b.N barriers per thread of one region; before runs on
// every thread ahead of each barrier.
func benchBarrier(b *testing.B, before func(t *omp.Thread)) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			omp.Parallel(func(t *omp.Thread) {
				for i := 0; i < b.N; i++ {
					before(t)
					omp.Barrier(t)
				}
			}, omp.NumThreads(n))
		})
	}
}

// BenchmarkBarrierSkewed is the NPB CG shape: one thread does ≈20 µs of work
// between barriers, so every other thread waits about that long each
// generation. ns/op minus the 20 µs is what waiting costs the late arriver's
// teammates on top of the skew itself.
func BenchmarkBarrierSkewed(b *testing.B) {
	benchBarrier(b, func(t *omp.Thread) {
		if t.Tid == 0 {
			for start := time.Now(); time.Since(start) < 20*time.Microsecond; {
			}
		}
	})
}

// ---------------------------------------------------------------------
// Worksharing engine — the headline number of the unified stealing engine:
// a triangular workload (per-iteration cost ∝ i) under schedule(dynamic,1)
// at GOMAXPROCS workers, dispatched monotonically (one range the team
// shares, one contended CAS per chunk) versus nonmonotonically
// (static-seeded per-thread ranges with half-range stealing, where the hot
// path touches only thread-local state).

func benchImbalanced(b *testing.B, mod omp.SchedModifier) {
	threads := runtime.GOMAXPROCS(0)
	const trip = 4096
	sink := omp.NewReduction(omp.ReduceSum, 0.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		omp.Parallel(func(t *omp.Thread) {
			local := 0.0
			omp.ForRange(t, trip, func(lo, hi int64) {
				for j := lo; j < hi; j++ {
					for k := int64(0); k < j; k++ { // triangular: iteration j costs ∝ j
						local += float64(k&7) * 1e-9
					}
				}
			}, omp.Schedule(omp.Dynamic, 1, mod))
			sink.Combine(local)
		}, omp.NumThreads(threads))
	}
	b.StopTimer()
	_ = sink.Value()
}

// BenchmarkImbalancedFor/monotonic: every chunk grab hits the shared range.
// BenchmarkImbalancedFor/nonmonotonic: chunk grabs are thread-local pops;
// only rebalancing pays a cross-thread CAS.
func BenchmarkImbalancedFor(b *testing.B) {
	b.Run("monotonic", func(b *testing.B) { benchImbalanced(b, omp.Monotonic) })
	b.Run("nonmonotonic", func(b *testing.B) { benchImbalanced(b, omp.Nonmonotonic) })
}

// ---------------------------------------------------------------------
// Fork/join overhead: the EPCC syncbench "PARALLEL" microbenchmark — an
// empty region, so the hot-team wake/join path is all that is measured.

// BenchmarkForkOverhead times an empty region and reports allocations:
// the warm fork/join path is required to stay at 0 allocs/op for every team
// size (the hot-team fast path), which CI asserts via TestWarmRegionZeroAlloc
// and this benchmark makes visible as a number. x-floor is the cost as a
// multiple of the host's own cross-core round trip (bench.CrossCoreRoundTrip,
// BenchmarkCrossCoreFloor in internal/kmp): a fork plus a join cannot beat 1.
func BenchmarkForkOverhead(b *testing.B) {
	body := func(t *omp.Thread) {}
	const floorRounds = 20000
	floor := float64(bench.CrossCoreRoundTrip(floorRounds)) / floorRounds
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			omp.Parallel(body, omp.NumThreads(n)) // warm the team
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				omp.Parallel(body, omp.NumThreads(n))
			}
			if floor > 0 { // 0: a single processor has no cross-core floor
				b.ReportMetric(float64(b.Elapsed())/float64(b.N)/floor, "x-floor")
			}
		})
	}
}

// BenchmarkParallelForRange times the API's fused parallel-for (gompcc
// emits Parallel around a ForStart/ForNext loop instead): fork, static
// loop, join, over a body built once.
// 0 allocs/op: the loop travels in the runtime's region descriptor.
func BenchmarkParallelForRange(b *testing.B) {
	x, y := make([]float64, 1024), make([]float64, 1024)
	body := func(_ *omp.Thread, lo, hi int64) {
		for i := lo; i < hi; i++ {
			y[i] += 2 * x[i]
		}
	}
	for _, n := range []int{1, 2} {
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			omp.ParallelForRange(int64(len(x)), body, omp.NumThreads(n)) // warm the team
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				omp.ParallelForRange(int64(len(x)), body, omp.NumThreads(n))
			}
		})
	}
}

// BenchmarkAtomicUpdate times a `parallel for` whose body does `//omp
// atomic` on one of eight int64 counters per iteration, in the two ways the
// directive has been lowered: the typed helper the lowering emits now (one
// native add) and the process-wide critical section it replaced.
func BenchmarkAtomicUpdate(b *testing.B) {
	const n = 4096
	var counts [8]int64
	lowerings := []struct {
		name   string
		update func(i int64)
	}{
		{"helper", func(i int64) { omp.AtomicAdd(&counts[i%8], 1) }},
		{"critical", func(i int64) { omp.Critical("__omp_atomic", func() { counts[i%8] += 1 }) }},
	}
	for _, threads := range []int{1, 2} {
		for _, l := range lowerings {
			b.Run(fmt.Sprintf("threads=%d/%s", threads, l.name), func(b *testing.B) {
				region := func(t *omp.Thread) {
					omp.ForRange(t, n, func(lo, hi int64) {
						for i := lo; i < hi; i++ {
							l.update(i)
						}
					})
				}
				omp.Parallel(region, omp.NumThreads(threads)) // warm the team
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					omp.Parallel(region, omp.NumThreads(threads))
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// Serving — the request-path scenario of the hot-team runtime: many
// concurrent goroutines (requests) each repeatedly open a small parallel
// region over its own data. ns/op is the per-region cost under concurrency;
// allocs/op is required to be 0 on the warm path. SetParallelism scales the
// goroutine count beyond GOMAXPROCS, exactly the oversubscribed shape a
// server has.

func BenchmarkServingRegions(b *testing.B) {
	const span = 256 // per-request array length summed inside each region
	for _, team := range []int{1, 2} {
		for _, conc := range []int{4, 32} {
			b.Run(fmt.Sprintf("team=%d/conc=%d", team, conc), func(b *testing.B) {
				b.ReportAllocs()
				b.SetParallelism(conc)
				b.RunParallel(func(pb *testing.PB) {
					data := make([]float64, span)
					for i := range data {
						data[i] = float64(i)
					}
					sums := make([]struct {
						v float64
						_ [56]byte
					}, team)
					body := func(t *omp.Thread) {
						tid := t.Tid
						omp.ForRange(t, span, func(lo, hi int64) {
							s := 0.0
							for i := lo; i < hi; i++ {
								s += data[i]
							}
							sums[tid].v += s
						})
					}
					for pb.Next() {
						omp.Parallel(body, omp.NumThreads(team))
					}
				})
			})
		}
	}
}

// ---------------------------------------------------------------------
// Loop transformations — the cache-blocking headline of the tile/unroll
// subsystem: C = A·B under the naive triple loop, the `tile
// sizes(MMTile,MMTile)` restructuring, and `parallel for collapse(2)`
// stacked above the tile directive. All three execute the identical
// floating-point chain per output cell, so every variant is verified by
// exact equality against the naive reference each iteration.

func BenchmarkTiledMatmul(b *testing.B) {
	a, m := bench.NewMMPair()
	ref := make([]float64, bench.MMN*bench.MMN)
	bench.MMNaive(ref, a, m)
	threads := runtime.GOMAXPROCS(0)
	flops := 2 * float64(bench.MMN) * float64(bench.MMN) * float64(bench.MMN)
	check := func(b *testing.B, dst []float64) {
		b.Helper()
		if bench.MMMaxDiff(dst, ref) != 0 {
			b.Fatal("matmul result diverged from naive reference")
		}
	}
	b.Run("naive", func(b *testing.B) {
		dst := make([]float64, bench.MMN*bench.MMN)
		for i := 0; i < b.N; i++ {
			bench.MMNaive(dst, a, m)
			check(b, dst)
		}
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mflop/s")
	})
	b.Run("tiled", func(b *testing.B) {
		dst := make([]float64, bench.MMN*bench.MMN)
		for i := 0; i < b.N; i++ {
			bench.MMTiled(dst, a, m)
			check(b, dst)
		}
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mflop/s")
	})
	b.Run(fmt.Sprintf("tiled+parallel/threads=%d", threads), func(b *testing.B) {
		dst := make([]float64, bench.MMN*bench.MMN)
		for i := 0; i < b.N; i++ {
			bench.MMTiledParallel(dst, a, m, threads)
			check(b, dst)
		}
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mflop/s")
	})
}

// ---------------------------------------------------------------------
// Front end: the module build driver.

// BenchmarkDriverColdVsWarm measures the module build driver
// (internal/driver, `gompcc -module`) over a synthetic pragma-annotated
// module: cold is the full crawl + parallel transform fan-out of every
// file (cache disabled), warm is the same pass against a primed
// content-hash manifest, where every file is a hash comparison and a
// stat. The files/s gap is the cache's reason to exist; the fan-out
// itself runs on this repo's own omp runtime.
func BenchmarkDriverColdVsWarm(b *testing.B) {
	const nfiles = 24
	mkmodule := func(b *testing.B) string {
		b.Helper()
		root := b.TempDir()
		for i := 0; i < nfiles; i++ {
			src := fmt.Sprintf(`package p

func kernel%d(a, b []float64, n int) float64 {
	s := 0.0
	//omp parallel for reduction(+:s) schedule(dynamic,%d)
	for i := 0; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}
`, i, i+1)
			name := filepath.Join(root, fmt.Sprintf("k%02d.go", i))
			if err := os.WriteFile(name, []byte(src), 0o644); err != nil {
				b.Fatal(err)
			}
		}
		return root
	}
	jobs := runtime.GOMAXPROCS(0)
	filesPerSec := func(b *testing.B) {
		b.Helper()
		b.ReportMetric(float64(nfiles)*float64(b.N)/b.Elapsed().Seconds(), "files/s")
	}
	b.Run(fmt.Sprintf("cold/jobs=%d", jobs), func(b *testing.B) {
		d, err := driver.New(driver.Config{Module: mkmodule(b), OutDir: b.TempDir(), Jobs: jobs, CacheDir: driver.CacheOff})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := d.Run()
			if err != nil || rep.Transformed != nfiles {
				b.Fatalf("cold pass: %v, %s", err, rep.Summary())
			}
		}
		filesPerSec(b)
	})
	b.Run(fmt.Sprintf("warm/jobs=%d", jobs), func(b *testing.B) {
		d, err := driver.New(driver.Config{Module: mkmodule(b), OutDir: b.TempDir(), Jobs: jobs})
		if err != nil {
			b.Fatal(err)
		}
		if rep, err := d.Run(); err != nil || rep.Transformed != nfiles {
			b.Fatalf("priming pass: %v", err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := d.Run()
			if err != nil || rep.Cached != nfiles {
				b.Fatalf("warm pass: %v, %s", err, rep.Summary())
			}
		}
		filesPerSec(b)
	})
}

// ---------------------------------------------------------------------
// Task dependences — the headline number of the dependence subsystem: a
// blocked LU factorisation (LUN×LUN, LUBlock×LUBlock blocks) expressed as
// a dependence DAG (depend(in/out/inout) on the block anchors, the whole
// factorisation spawned up front) against the taskwait-per-level
// formulation (a full child-barrier after every fwd/bdiv wave and every
// bmod wave) and the serial blocked sweep. The DAG overlaps elimination
// steps — lu0(k+1) starts while step k's trailing bmods are in flight —
// which the taskwait version structurally cannot. All three factor
// bitwise identically (asserted per iteration).
func BenchmarkBlockedLU(b *testing.B) {
	ref := bench.NewLUMatrix()
	bench.LUSerial(ref)
	threads := runtime.GOMAXPROCS(0)
	check := func(b *testing.B, a []float64) {
		b.Helper()
		if bench.LUMaxDiff(a, ref) != 0 {
			b.Fatal("LU result diverged from serial")
		}
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := bench.NewLUMatrix()
			bench.LUSerial(a)
			check(b, a)
		}
	})
	b.Run(fmt.Sprintf("taskwait/threads=%d", threads), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := bench.NewLUMatrix()
			bench.LUTaskwait(a, threads)
			check(b, a)
		}
	})
	b.Run(fmt.Sprintf("dag/threads=%d", threads), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := bench.NewLUMatrix()
			bench.LUDAG(a, threads)
			check(b, a)
		}
	})
}
