// Code generated by gompcc from _omp/parallel.go. DO NOT EDIT.

package is

import (
	"gomp/internal/npb"
	"gomp/omp"
)

// keyBlock is the strip a worksharing loop iteration covers: keyBlock keys
// to count or draw, or keyBlock key values to scan. A strip runs as a plain
// range loop, so a key pays for its own work alone; as one iteration of a
// generated loop it would also pay the loop's counter, its stepped index
// and a bounds check on the index. Written per key, as NPB IS writes it,
// the rank ran at a speedup of 1.28–1.45 against 1.66–1.94 strip-mined
// (ten alternating pairs of the npb_is benchmark, 2-vCPU host, T=2).
const keyBlock = 1024

// histograms returns the threads × maxKey histogram space rankOMP works in:
// a prefix of buff2 when it fits, since buff2 is dead while ranking and
// fullVerify counts the keys into it only after the timer stops;
// otherwise a fresh slice, allocated once per run (RunParallel's buff2).
func (pr *problem) histograms(threads int) []int32 {
	n := threads * int(pr.maxKey)
	if n <= len(pr.buff2) {
		return pr.buff2[:n]
	}
	return make([]int32, n)
}

// padI32 keeps each thread's block total on its own cache line.
type padI32 struct {
	v int32
	_ [60]byte
}

// rankOMP computes the cumulative rank array in three phases, a barrier
// after each of the first two. Count: every thread counts its static share
// of the keys into its own histogram over the whole key range. Block scan:
// every thread sums the team's histograms over its static share of the
// key values into a prefix whose running total stays in a register, and
// stores its share's total. Offsets: every thread adds the lower threads'
// totals over the same share, the scan and offsets loops having one
// schedule. A cancellable team hands a share over in several chunks, in
// order, so the running total carries from strip to strip.
//
// NPB's OpenMP IS without USE_BUCKETS has every thread prefix-sum its
// whole histogram instead: T serial load–add–store chains through memory
// on the critical path, each about 210 µs at class W on a 2-vCPU Intel
// Xeon (70 µs with the total in a register) in a 0.9 ms two-thread rank.
// Buckets lose here (9.6 ms against 1.7 ms at one thread on class W) and
// survive only in the pinned goroutine baseline (goroutine.go).
//
// hist holds threads × maxKey words, thread t owning the t-th maxKey-long
// run, and totals threads slots; only the team's are read, since the team
// can be narrower than requested and words past it stale. Integer
// arithmetic over deterministic partitions keeps the ranks bit-identical
// to rankSerial.
func (pr *problem) rankOMP(hist []int32, totals []padI32, threads int) {
	maxKey := int(pr.maxKey)
	{
		omp.Parallel(func(__omp_t *omp.Thread) {

			tid := omp.GetThreadNum()
			last := (omp.GetNumThreads() - 1) * maxKey
			mine := hist[tid*maxKey:][:maxKey]
			clear(mine)
			{
				__omp_lb0 := 0
				__omp_st0 := int64((keyBlock))
				__omp_trip := omp.TripCount(__omp_lb0, pr.nKeys, __omp_st0, false)
				for __omp_clo, __omp_chi, __omp_ok := omp.ForStart(__omp_t, __omp_trip, omp.Schedule(omp.Static, 0), omp.Loc("parallel.go", 65, "for")); __omp_ok; __omp_clo, __omp_chi, __omp_ok = omp.ForNext(__omp_t) {
					for __omp_k, b := __omp_clo, omp.LoopVar(__omp_lb0, __omp_clo, __omp_st0); __omp_k < __omp_chi; __omp_k, b = __omp_k+1, omp.LoopVar(b, 1, __omp_st0) {

						for _, k := range pr.keys[b:min(b+keyBlock, pr.nKeys)] {
							mine[k]++
						}

					}
				}
			}
			omp.Barrier(__omp_t)

			total := int32(0)
			{
				__omp_lb0 := 0
				__omp_st0 := int64((keyBlock))
				__omp_trip := omp.TripCount(__omp_lb0, maxKey, __omp_st0, false)
				for __omp_clo, __omp_chi, __omp_ok := omp.ForStart(__omp_t, __omp_trip, omp.Schedule(omp.Static, 0), omp.Loc("parallel.go", 74, "for")); __omp_ok; __omp_clo, __omp_chi, __omp_ok = omp.ForNext(__omp_t) {
					for __omp_k, b := __omp_clo, omp.LoopVar(__omp_lb0, __omp_clo, __omp_st0); __omp_k < __omp_chi; __omp_k, b = __omp_k+1, omp.LoopVar(b, 1, __omp_st0) {

						strip := pr.ranks[b:min(b+keyBlock, maxKey)]
						clear(strip)
						for h := 0; h < last; h += maxKey {
							for i, c := range hist[h+b:][:len(strip)] {
								strip[i] += c
							}
						}
						run := total
						for i, c := range hist[last+b:][:len(strip)] {
							run += strip[i] + c
							strip[i] = run
						}
						total = run

					}
				}
			}
			totals[tid].v = total
			omp.Barrier(__omp_t)

			// The region's join publishes the ranks.
			offset := int32(0)
			for _, t := range totals[:tid] {
				offset += t.v
			}
			{
				__omp_lb0 := 0
				__omp_st0 := int64((keyBlock))
				__omp_trip := omp.TripCount(__omp_lb0, maxKey, __omp_st0, false)
				for __omp_clo, __omp_chi, __omp_ok := omp.ForStart(__omp_t, __omp_trip, omp.Schedule(omp.Static, 0), omp.Loc("parallel.go", 98, "for")); __omp_ok; __omp_clo, __omp_chi, __omp_ok = omp.ForNext(__omp_t) {
					for __omp_k, b := __omp_clo, omp.LoopVar(__omp_lb0, __omp_clo, __omp_st0); __omp_k < __omp_chi; __omp_k, b = __omp_k+1, omp.LoopVar(b, 1, __omp_st0) {

						strip := pr.ranks[b:min(b+keyBlock, maxKey)]
						for i := range strip {
							strip[i] += offset
						}

					}
				}
			}

		}, omp.NumThreads(threads), omp.Loc("parallel.go", 59, "parallel"))
	}
}

// RunParallel executes IS with rank() on the OpenMP runtime. Key generation
// is also parallel, seed-jumped per strip, and produces the identical
// sequence to the serial generator.
func RunParallel(class npb.Class, threads int) (*Stats, error) {
	pr, err := allocProblem(class)
	if err != nil {
		return nil, err
	}
	if threads < 1 {
		threads = 1
	}
	{
		omp.Parallel(func(__omp_t *omp.Thread) {
			{
				__omp_lb0 := 0
				__omp_st0 := int64((keyBlock))
				__omp_trip := omp.TripCount(__omp_lb0, pr.nKeys, __omp_st0, false)
				for __omp_clo, __omp_chi, __omp_ok := omp.ForStart(__omp_t, __omp_trip, omp.Schedule(omp.Static, 0), omp.Loc("parallel.go", 119, "for")); __omp_ok; __omp_clo, __omp_chi, __omp_ok = omp.ForNext(__omp_t) {
					for __omp_k, b := __omp_clo, omp.LoopVar(__omp_lb0, __omp_clo, __omp_st0); __omp_k < __omp_chi; __omp_k, b = __omp_k+1, omp.LoopVar(b, 1, __omp_st0) {

						pr.genKeys(b, min(b+keyBlock, pr.nKeys))

					}
				}
			}
		}, omp.NumThreads(threads), omp.Loc("parallel.go", 119, "parallel"))
	}

	pr.buff2 = pr.histograms(threads)
	totals := make([]padI32, threads)
	var tm npb.Timer
	pr.prepareIteration(1)
	pr.rankOMP(pr.buff2, totals, threads)
	tm.Start()
	for it := 1; it <= maxIterations; it++ {
		pr.prepareIteration(it)
		pr.rankOMP(pr.buff2, totals, threads)
	}
	tm.Stop()
	return pr.stats(class, threads, tm.Seconds()), nil
}
