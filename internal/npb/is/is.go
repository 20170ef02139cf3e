// Package is implements the NPB Integer Sort kernel: ten iterations of
// ranking 2^N uniformly distributed integer keys by bucketed counting sort
// — "indirect memory accesses … designed to pressurise the memory
// subsystem" (paper Section V-C). The paper ports the rank function
// ("around 70% of the total runtime") and notes the port uses private and
// firstprivate clauses plus a schedule(static,1) loop; the omp flavour's
// per-bucket loop reproduces that schedule.
package is

import (
	"fmt"
	"hash/fnv"

	"gomp/internal/npb"
)

// maxIterations is NPB's MAX_ITERATIONS: the number of timed rank calls.
const maxIterations = 10

// numBucketsLog2 is NPB's NUM_BUCKETS_LOG_2 (same for every class).
const numBucketsLog2 = 10

type classParams struct {
	totalKeysLog2 int
	maxKeyLog2    int
}

var classes = map[npb.Class]classParams{
	npb.ClassS: {16, 11},
	npb.ClassW: {20, 16},
	npb.ClassA: {23, 19},
	npb.ClassB: {25, 21},
	npb.ClassC: {27, 23},
}

// Stats is the observable outcome of an IS run.
type Stats struct {
	Class    npb.Class
	Keys     int64
	MaxKey   int32
	Seconds  float64
	Threads  int
	SortedOK bool   // full verification: reconstruction is non-decreasing
	RankHash uint64 // FNV over the final cumulative rank array
}

// problem is one instantiated key set plus scratch.
type problem struct {
	params   classParams
	nKeys    int
	maxKey   int32
	keys     []int32 // the key array (mutated at slots [it] and [it+10])
	buff2    []int32 // bucket-scattered keys
	ranks    []int32 // cumulative counts: ranks[v] = #keys ≤ v
	origHist []int64 // histogram of the original keys (conservation check)
}

func newProblem(class npb.Class) (*problem, error) {
	p, ok := classes[class]
	if !ok {
		return nil, fmt.Errorf("is: unsupported class %v", class)
	}
	pr := &problem{
		params: p,
		nKeys:  1 << p.totalKeysLog2,
		maxKey: 1 << p.maxKeyLog2,
	}
	pr.keys = make([]int32, pr.nKeys)
	pr.buff2 = make([]int32, pr.nKeys)
	pr.ranks = make([]int32, pr.maxKey)
	return pr, nil
}

// genKeys fills keys[lo:hi] with NPB's create_seq sequence: each key is the
// scaled average of four consecutive LCG draws. The seed is jumped to
// 4·lo, so any partition of the range produces the identical sequence —
// how the NPB OpenMP version keeps parallel key generation deterministic.
func (pr *problem) genKeys(lo, hi int) {
	seed := npb.SkipAhead(npb.DefaultSeed, npb.DefaultMult, int64(4*lo))
	k := float64(pr.maxKey / 4)
	for i := lo; i < hi; i++ {
		x := npb.Randlc(&seed, npb.DefaultMult)
		x += npb.Randlc(&seed, npb.DefaultMult)
		x += npb.Randlc(&seed, npb.DefaultMult)
		x += npb.Randlc(&seed, npb.DefaultMult)
		pr.keys[i] = int32(k * x)
	}
}

// prepareIteration applies NPB's per-iteration key twiddle, which keeps the
// ranks from being loop-invariant across the ten timed iterations.
func (pr *problem) prepareIteration(it int) {
	pr.keys[it] = int32(it)
	pr.keys[it+maxIterations] = pr.maxKey - int32(it)
}

// rankSerial computes the cumulative rank array for the current keys:
// ranks[v] = number of keys with value ≤ v. One pass of counting plus a
// prefix sum — the serial reference for all flavours.
func (pr *problem) rankSerial() {
	for v := range pr.ranks {
		pr.ranks[v] = 0
	}
	for _, k := range pr.keys {
		pr.ranks[k]++
	}
	for v := int32(1); v < pr.maxKey; v++ {
		pr.ranks[v] += pr.ranks[v-1]
	}
}

// fullVerify reconstructs the sorted sequence from the rank information and
// checks it is non-decreasing and conserves the key histogram — NPB's
// full_verify criterion, which stands in for the published
// partial-verification constant tables: those are not reproduced.
func (pr *problem) fullVerify() bool {
	sorted := make([]int32, pr.nKeys)
	next := make([]int32, pr.maxKey)
	copy(next[1:], pr.ranks[:pr.maxKey-1]) // next[v] = #keys < v
	for _, k := range pr.keys {
		sorted[next[k]] = k
		next[k]++
	}
	for i := 1; i < pr.nKeys; i++ {
		if sorted[i-1] > sorted[i] {
			return false
		}
	}
	// Conservation: the rank array's implied histogram must match the
	// key multiset.
	hist := make([]int64, pr.maxKey)
	for _, k := range pr.keys {
		hist[k]++
	}
	prev := int32(0)
	for v := int32(0); v < pr.maxKey; v++ {
		if int64(pr.ranks[v]-prev) != hist[v] {
			return false
		}
		prev = pr.ranks[v]
	}
	return true
}

func (pr *problem) rankHash() uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range pr.ranks {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func (pr *problem) stats(class npb.Class, threads int, seconds float64) *Stats {
	return &Stats{
		Class:    class,
		Keys:     int64(pr.nKeys),
		MaxKey:   pr.maxKey,
		Seconds:  seconds,
		Threads:  threads,
		SortedOK: pr.fullVerify(),
		RankHash: pr.rankHash(),
	}
}

// RunSerial executes IS sequentially.
func RunSerial(class npb.Class) (*Stats, error) {
	pr, err := newProblem(class)
	if err != nil {
		return nil, err
	}
	pr.genKeys(0, pr.nKeys)

	var tm npb.Timer
	pr.prepareIteration(1) // untimed warm-up, as in the NPB driver
	pr.rankSerial()
	tm.Start()
	for it := 1; it <= maxIterations; it++ {
		pr.prepareIteration(it)
		pr.rankSerial()
	}
	tm.Stop()
	return pr.stats(class, 1, tm.Seconds()), nil
}

// Verify reports whether a run passed full verification.
func Verify(st *Stats) bool { return st.SortedOK }

// Mops returns the NPB Mop/s metric for IS: keys ranked per second over the
// ten iterations.
func (st *Stats) Mops() float64 {
	if st.Seconds <= 0 {
		return 0
	}
	return float64(st.Keys) * maxIterations / st.Seconds / 1e6
}

// Result renders the NPB-style report row.
func (st *Stats) Result(impl string) npb.Result {
	return npb.Result{
		Name:      "IS",
		Class:     st.Class,
		Size:      fmt.Sprintf("%d keys, max %d", st.Keys, st.MaxKey),
		Iters:     maxIterations,
		Seconds:   st.Seconds,
		MopsTotal: st.Mops(),
		Threads:   st.Threads,
		Impl:      impl,
		Verified:  st.SortedOK,
		Detail:    fmt.Sprintf("rank hash = %016x", st.RankHash),
	}
}
