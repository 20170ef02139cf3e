package is

// The pinned goroutine baseline's workspace (goroutine.go is checksummed by
// the benchmark harness, so its names stay as they are): the three-pass
// bucketed rank the omp flavour ran before it switched to per-thread key
// histograms, which is why the type still carries the omp prefix.

type ompWorkspace struct {
	threads     int
	bucketSize  [][]int32 // [thread][bucket] histogram
	bucketPtr   [][]int32 // [thread][bucket] scatter cursor
	bucketStart []int32   // [bucket+1] bucket offsets in buff2
}

func newOmpWorkspace(threads, buckets int) *ompWorkspace {
	ws := &ompWorkspace{threads: threads, bucketStart: make([]int32, buckets+1)}
	ws.bucketSize = make([][]int32, threads)
	ws.bucketPtr = make([][]int32, threads)
	for t := 0; t < threads; t++ {
		ws.bucketSize[t] = make([]int32, buckets)
		ws.bucketPtr[t] = make([]int32, buckets)
	}
	return ws
}
