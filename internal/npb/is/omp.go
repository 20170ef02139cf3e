package is

import (
	"gomp/internal/npb"
	"gomp/omp"
)

// histograms returns the threads × maxKey histogram space rankOMP works in:
// a prefix of buff2 when it fits, since buff2 is dead while ranking and
// fullVerify counts the keys into it only after the timer stops;
// otherwise a fresh slice, allocated once per run.
func (pr *problem) histograms(threads int) []int32 {
	n := threads * int(pr.maxKey)
	if n <= len(pr.buff2) {
		return pr.buff2[:n]
	}
	return make([]int32, n)
}

// rankOMP computes the cumulative rank array on the OpenMP runtime, the way
// NPB's OpenMP IS does without USE_BUCKETS: every thread counts its static
// block of keys into a private histogram over the whole key range and
// prefix-sums it; after one barrier a static loop over key values adds the
// per-thread prefixes into the rank array. hist holds at least threads ×
// maxKey words; thread t owns the t-th maxKey-long run. The result is
// bit-identical to rankSerial: integer arithmetic with deterministic
// partitions.
func (pr *problem) rankOMP(hist []int32, threads int) {
	maxKey := int64(pr.maxKey)
	omp.Parallel(func(t *omp.Thread) {
		mine := hist[int64(t.Tid)*maxKey:][:maxKey]
		clear(mine)
		omp.ForRange(t, int64(pr.nKeys), func(lo, hi int64) {
			for _, k := range pr.keys[lo:hi] {
				mine[k]++
			}
		}, omp.Schedule(omp.Static, 0), omp.NoWait())
		for v := 1; v < len(mine); v++ {
			mine[v] += mine[v-1]
		}
		// Every histogram is complete past this barrier. The merge reads
		// the granted team's histograms only: words past them may be
		// stale, and the team can be narrower than requested.
		omp.Barrier(t)
		nth := int64(t.NumThreads())
		// The region's join publishes the ranks, so the loop skips its own
		// barrier.
		omp.ForRange(t, maxKey, func(lo, hi int64) {
			ranks := pr.ranks[lo:hi]
			copy(ranks, hist[lo:hi])
			for tt := int64(1); tt < nth; tt++ {
				for i, c := range hist[tt*maxKey+lo : tt*maxKey+hi] {
					ranks[i] += c
				}
			}
		}, omp.Schedule(omp.Static, 0), omp.NoWait())
	}, omp.NumThreads(threads))
}

// RunParallel executes IS with rank() on the OpenMP runtime. Key generation
// is also parallel, seed-jumped per block, and produces the identical
// sequence to the serial generator.
func RunParallel(class npb.Class, threads int) (*Stats, error) {
	pr, err := newProblem(class)
	if err != nil {
		return nil, err
	}
	if threads < 1 {
		threads = 1
	}
	omp.ParallelForRange(int64(pr.nKeys), func(t *omp.Thread, lo, hi int64) {
		pr.genKeys(int(lo), int(hi))
	}, omp.NumThreads(threads), omp.Schedule(omp.Static, 0))

	hist := pr.histograms(threads)
	var tm npb.Timer
	pr.prepareIteration(1)
	pr.rankOMP(hist, threads)
	tm.Start()
	for it := 1; it <= maxIterations; it++ {
		pr.prepareIteration(it)
		pr.rankOMP(hist, threads)
	}
	tm.Stop()
	return pr.stats(class, threads, tm.Seconds()), nil
}
