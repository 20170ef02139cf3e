// Package is implements the NPB Integer Sort kernel: ten iterations of
// ranking 2^N uniformly distributed integer keys by counting sort —
// "indirect memory accesses … designed to pressurise the memory subsystem"
// (paper Section V-C). The paper ports the rank function ("around 70% of
// the total runtime") and notes the port uses private and firstprivate
// clauses plus a schedule(static,1) loop.
//
// The omp flavour's rankOMP ranks in three phases, count, block scan and
// offsets; its comment in _omp/parallel.go gives them and why they beat
// NPB's per-thread prefix sums. genKeys draws the keys in four lanes, one
// per draw of a key.
//
// Every flavour ends with NPB's full verification, untimed: the keys
// placed by their ranks must come out sorted. fullVerify decides it at
// linear cost, without placing a key, by checking that the rank array is
// the keys' cumulative histogram.
package is

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"gomp/internal/npb"
)

//go:generate go run gomp/cmd/gompcc -o omp.go _omp/parallel.go

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
	SortedOK bool   // full verification: the keys placed by their ranks come out sorted
	RankHash uint64 // FNV over the final cumulative rank array
}

// problem is one instantiated key set plus scratch.
type problem struct {
	params classParams
	nKeys  int
	maxKey int32
	keys   []int32 // the key array (mutated at slots [it] and [it+10])
	buff2  []int32 // rank scratch sized per flavour (maxKey, threads × maxKey or nKeys words); then fullVerify's key histogram
	ranks  []int32 // cumulative counts: ranks[v] = #keys ≤ v
}

// allocProblem allocates a class's keys and ranks, leaving buff2 unset.
func allocProblem(class npb.Class) (*problem, error) {
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
	pr.ranks = make([]int32, pr.maxKey)
	return pr, nil
}

// newProblem gives buff2 nKeys words: the goroutine baseline scatters keys there.
func newProblem(class npb.Class) (*problem, error) {
	pr, err := allocProblem(class)
	if err == nil {
		pr.buff2 = make([]int32, pr.nKeys)
	}
	return pr, err
}

// genKeys fills keys[lo:hi] with NPB's create_seq sequence: each key is the
// scaled average of four consecutive LCG draws. The seed is jumped to
// 4·lo, so any partition of the range produces the identical sequence —
// how the NPB OpenMP version keeps parallel key generation deterministic.
//
// NPB computes maxKey/4 · (r1+r2+r3+r4) in double precision. Each draw is
// an integer below 2^46 times 2^-46, so every partial sum is an integer
// below 2^48 times 2^-46 and is exact, and maxKey/4 is a power of two. The
// key is therefore the integer sum of the four states shifted right by
// 48 − log2(maxKey), which is what this computes.
//
// Lane j holds draw j of a key and steps by a^4 mod 2^46: four independent
// multiplies per key, not a chain of four. The states are exact integers
// (in float64 too), so the keys are bit for bit the single stream's.
func (pr *problem) genKeys(lo, hi int) {
	s := npb.NewStream(npb.SkipAhead(npb.DefaultSeed, npb.DefaultMult, int64(4*lo)), npb.DefaultMult)
	shift := 48 - pr.params.maxKeyLog2
	a4 := npb.SkipAhead(1, npb.DefaultMult, 4)
	x0, x1, x2, x3 := s.Next(), s.Next(), s.Next(), s.Next()
	l0, l1 := npb.NewStream(float64(x0), a4), npb.NewStream(float64(x1), a4)
	l2, l3 := npb.NewStream(float64(x2), a4), npb.NewStream(float64(x3), a4)
	sum := x0 + x1 + x2 + x3
	for i := lo; i < hi; i++ {
		pr.keys[i] = int32(sum >> shift)
		sum = l0.Next() + l1.Next() + l2.Next() + l3.Next()
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

// fullVerify is NPB's full_verify, which stands in for the published
// partial-verification constant tables (those are not reproduced): placing
// every key of value v in the next free slot of [ranks[v−1], ranks[v]),
// with ranks[−1] = 0, must fill the key range exactly and leave it sorted.
// That holds if and only if ranks is the cumulative histogram of the keys,
// so fullVerify counts the keys into buff2, whose rank scratch is dead once
// the ranks are computed, and checks every difference ranks[v] − ranks[v−1]
// against the count of v. The differences are taken in int64, so a
// corrupted rank cannot wrap into a match.
func (pr *problem) fullVerify() bool {
	count := pr.buff2[:pr.maxKey]
	clear(count)
	for _, k := range pr.keys {
		count[k]++
	}
	prev := int64(0)
	for v, c := range count {
		r := int64(pr.ranks[v])
		if r-prev != int64(c) {
			return false
		}
		prev = r
	}
	return true
}

// rankHash is FNV-64a over the rank array as little-endian int32s, fed
// 4 KiB at a time from a stack buffer so that hashing allocates nothing.
func (pr *problem) rankHash() uint64 {
	h := fnv.New64a()
	var buf [4096]byte
	for ranks := pr.ranks; len(ranks) > 0; {
		n := min(len(ranks), len(buf)/4)
		b := buf[:0]
		for _, v := range ranks[:n] {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
		h.Write(b)
		ranks = ranks[n:]
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
	pr, err := allocProblem(class)
	if err != nil {
		return nil, err
	}
	pr.buff2 = make([]int32, pr.maxKey)
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
