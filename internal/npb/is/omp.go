package is

import (
	"gomp/internal/npb"
	"gomp/omp"
)

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

// rankOMP computes the cumulative rank array in the package comment's three
// phases, a barrier after each of the first two. hist holds threads × maxKey
// words, thread t owning the t-th maxKey-long run, and totals threads
// slots; only the granted team's are read, since the team can be narrower
// than requested and words past it stale. Integer arithmetic over
// deterministic partitions keeps the ranks bit-identical to rankSerial.
func (pr *problem) rankOMP(hist []int32, totals []padI32, threads int) {
	maxKey := int64(pr.maxKey)
	omp.Parallel(func(t *omp.Thread) {
		mine := hist[int64(t.Tid)*maxKey:][:maxKey]
		clear(mine)
		omp.ForRange(t, int64(pr.nKeys), func(lo, hi int64) {
			for _, k := range pr.keys[lo:hi] {
				mine[k]++
			}
		}, omp.Schedule(omp.Static, 0), omp.NoWait())
		omp.Barrier(t)
		// Block scan. A cancellable team hands a block over in several
		// chunks, so the running total carries from one to the next.
		last := int64(t.NumThreads()-1) * maxKey
		total := int32(0)
		omp.ForRange(t, maxKey, func(lo, hi int64) {
			ranks := pr.ranks[lo:hi]
			clear(ranks)
			for h := int64(0); h < last; h += maxKey {
				for i, c := range hist[h+lo : h+hi] {
					ranks[i] += c
				}
			}
			run := total
			for i, c := range hist[last+lo : last+hi] {
				run += ranks[i] + c
				ranks[i] = run
			}
			total = run
		}, omp.Schedule(omp.Static, 0), omp.NoWait())
		totals[t.Tid].v = total
		omp.Barrier(t)

		// Offsets. Thread 0 adds nothing but still meets the loop, as a team
		// must; the region's join publishes the ranks.
		offset := int32(0)
		for tt := range t.Tid {
			offset += totals[tt].v
		}
		omp.ForRange(t, maxKey, func(lo, hi int64) {
			ranks := pr.ranks[lo:hi]
			for i := range ranks {
				ranks[i] += offset
			}
		}, omp.Schedule(omp.Static, 0), omp.NoWait())
	}, omp.NumThreads(threads))
}

// RunParallel executes IS with rank() on the OpenMP runtime. Key generation
// is also parallel, seed-jumped per block, and produces the identical
// sequence to the serial generator.
func RunParallel(class npb.Class, threads int) (*Stats, error) {
	pr, err := allocProblem(class)
	if err != nil {
		return nil, err
	}
	if threads < 1 {
		threads = 1
	}
	omp.ParallelForRange(int64(pr.nKeys), func(t *omp.Thread, lo, hi int64) {
		pr.genKeys(int(lo), int(hi))
	}, omp.NumThreads(threads), omp.Schedule(omp.Static, 0))

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
