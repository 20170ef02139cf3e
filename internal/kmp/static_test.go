package kmp

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"testing"
	"testing/quick"
)

func TestTripCount(t *testing.T) {
	cases := []struct {
		lb, ub, st int64
		inclusive  bool
		want       int64
	}{
		{0, 10, 1, false, 10},
		{0, 10, 1, true, 11},
		{0, 10, 3, false, 4}, // 0,3,6,9
		{0, 10, 3, true, 4},  // 0,3,6,9 (10 not hit: (10-0)/3 not integral)
		{0, 9, 3, true, 4},   // 0,3,6,9
		{5, 5, 1, false, 0},  // empty
		{5, 5, 1, true, 1},   // single iteration
		{10, 0, -1, false, 10},
		{10, 0, -1, true, 11},
		{10, 0, -3, false, 4}, // 10,7,4,1
		{0, -5, 1, false, 0},  // never runs
		{-5, 0, -1, false, 0}, // never runs (wrong direction)
		{-10, -4, 2, false, 3},
		// ub-lb+st-1 overflows int64 here: the count comes from the
		// unsigned distance.
		{-(1 << 62), 1 << 62, 1 << 61, true, 5},
		{1 << 62, -(1 << 62), -(1 << 61), true, 5},
	}
	for _, c := range cases {
		if got := TripCount(c.lb, c.ub, c.st, c.inclusive); got != c.want {
			t.Errorf("TripCount(%d,%d,%d,%v) = %d, want %d", c.lb, c.ub, c.st, c.inclusive, got, c.want)
		}
	}
}

// Property: TripCount matches actually running the loop.
func TestTripCountMatchesLoop(t *testing.T) {
	f := func(lb, ub int16, stRaw int8, inclusive bool) bool {
		st := int64(stRaw)
		if st == 0 {
			st = 1
		}
		count := int64(0)
		if st > 0 {
			for i := int64(lb); (i < int64(ub)) || (inclusive && i == int64(ub)); i += st {
				count++
			}
		} else {
			for i := int64(lb); (i > int64(ub)) || (inclusive && i == int64(ub)); i += st {
				count++
			}
		}
		return TripCount(int64(lb), int64(ub), st, inclusive) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTripCountPanicsOnZeroStride(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TripCount with zero stride did not panic")
		}
	}()
	TripCount(0, 10, 0, false)
}

// tripOracle counts the k ≥ 0 with lb + k·st on the loop's side of ub, in
// exact arithmetic: ⌈(ub−lb)/st⌉ for an exclusive bound, ⌊(ub−lb)/st⌋ + 1
// for an inclusive one, and never below zero.
func tripOracle(lb, ub, st *big.Int, inclusive bool) *big.Int {
	num, den := new(big.Int).Sub(ub, lb), new(big.Int).Set(st)
	if den.Sign() < 0 {
		num.Neg(num)
		den.Neg(den)
	}
	q, m := new(big.Int).DivMod(num, den, new(big.Int)) // floor, for den > 0
	switch {
	case inclusive:
		q.Add(q, big.NewInt(1))
	case m.Sign() != 0:
		q.Add(q, big.NewInt(1)) // ceiling
	}
	if q.Sign() < 0 {
		q.SetInt64(0)
	}
	return q
}

// checkTrip runs TripCount in T and compares it with the oracle over the
// bounds' exact values: a count int64 cannot hold must panic, as must a
// zero step.
func checkTrip[T Integer](t *testing.T, lb, ub T, blb, bub *big.Int, st int64, inclusive bool) {
	t.Helper()
	var got int64
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		got = TripCount(lb, ub, st, inclusive)
		return false
	}()
	if st == 0 {
		if !panicked {
			t.Fatalf("TripCount(%v, %v, 0, %v) did not panic", lb, ub, inclusive)
		}
		return
	}
	want := tripOracle(blb, bub, big.NewInt(st), inclusive)
	if !want.IsInt64() {
		if !panicked {
			t.Fatalf("TripCount(%v, %v, %d, %v) = %d, want a panic (exact count %v)", lb, ub, st, inclusive, got, want)
		}
		return
	}
	if panicked || got != want.Int64() {
		t.Fatalf("TripCount(%v, %v, %d, %v) = %d (panicked %v), want %v", lb, ub, st, inclusive, got, panicked, want)
	}
}

// FuzzTripCount checks TripCount against exact arithmetic for int64 and
// uint64 loop variables, whose extremes no int64 intermediate holds.
func FuzzTripCount(f *testing.F) {
	f.Add(int64(-(1 << 62)), int64(1<<62), int64(1<<61), true)
	f.Add(int64(1<<62), int64(-(1 << 62)), int64(-(1 << 61)), true)
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), int64(1), true)
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), int64(1), false)
	f.Add(int64(math.MaxInt64), int64(math.MinInt64), int64(math.MinInt64), false)
	f.Add(int64(0), int64(-1), int64(2), false)
	f.Add(int64(5), int64(5), int64(0), true)
	f.Fuzz(func(t *testing.T, lb, ub, st int64, inclusive bool) {
		checkTrip(t, lb, ub, big.NewInt(lb), big.NewInt(ub), st, inclusive)
		ulb, uub := uint64(lb), uint64(ub)
		checkTrip(t, ulb, uub, new(big.Int).SetUint64(ulb), new(big.Int).SetUint64(uub), st, inclusive)
	})
}

// Property: StaticBlock partitions [0,trip) exactly — disjoint, covering,
// ordered, and balanced to within one iteration.
func TestStaticBlockPartition(t *testing.T) {
	f := func(tripRaw uint16, nthRaw uint8) bool {
		trip := int64(tripRaw)
		nth := int(nthRaw)%64 + 1
		next := int64(0)
		var minSize, maxSize int64 = 1 << 62, -1
		for tid := 0; tid < nth; tid++ {
			b, e := StaticBlock(tid, nth, trip)
			if b != next || e < b {
				return false
			}
			size := e - b
			if size < minSize {
				minSize = size
			}
			if size > maxSize {
				maxSize = size
			}
			next = e
		}
		return next == trip && maxSize-minSize <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the chunked static mapping covers [0,trip) exactly once across
// the team, with chunk c assigned to thread c mod nth.
func TestStaticChunkedPartition(t *testing.T) {
	check := func(trip int64, nth int, chunk int64) bool {
		seen := make([]int, trip)
		for tid := 0; tid < nth; tid++ {
			share := staticMapping(tid, nth, trip, chunk)
			for b, e, ok := share.take(); ok; b, e, ok = share.take() {
				wantTid := int((b / chunk) % int64(nth))
				if wantTid != tid || b >= e {
					t.Fatalf("chunk [%d,%d) ran on tid %d, want %d", b, e, tid, wantTid)
				}
				for i := b; i < e; i++ {
					seen[i]++
				}
			}
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("trip=%d nth=%d chunk=%d: iteration %d executed %d times", trip, nth, chunk, i, c)
			}
		}
		return true
	}
	for _, trip := range []int64{0, 1, 7, 64, 1000} {
		for _, nth := range []int{1, 2, 3, 8, 16} {
			for _, chunk := range []int64{1, 2, 7, 100} {
				check(trip, nth, chunk)
			}
		}
	}
}

// TestStaticAndDispatchedLoops drives every loop kind through a real team
// the way a lowered `//omp for` does — DispatchInit, then DispatchNext until
// the thread is done — over edge trip counts and team sizes, in plain and
// cancellable teams, with and without the ordered clause. Every iteration
// must run exactly once; under a static kind thread tid must get exactly its
// StaticBlock or its round-robin chunks, ordered or not, since OpenMP
// guarantees schedule(static)'s mapping.
func TestStaticAndDispatchedLoops(t *testing.T) {
	kinds := []Sched{
		{Kind: SchedStatic},
		{Kind: SchedStaticChunked, Chunk: 3},
		{Kind: SchedDynamicChunked, Chunk: 2},
		{Kind: SchedGuidedChunked},
	}
	for _, nth := range []int{1, 2, 3, 8} {
		for _, trip := range []int64{0, 1, int64(nth - 1), 103} {
			for _, k := range kinds {
				for _, cancellable := range []bool{false, true} {
					for _, ordered := range []bool{false, true} {
						sched := k
						sched.Ordered = ordered
						name := fmt.Sprintf("nth=%d/trip=%d/%v/cancellable=%v/ordered=%v", nth, trip, sched, cancellable, ordered)
						checkLoopKind(t, name, nth, trip, sched, cancellable)
					}
				}
			}
		}
	}
}

func checkLoopKind(t *testing.T, name string, nth int, trip int64, sched Sched, cancellable bool) {
	t.Helper()
	counts := make([]int32, trip)
	got := make([][]int64, nth)
	body := func(th *Thread) error {
		forLoop(th, Ident{}, sched, trip, func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				counts[i]++ // disjoint writes, no atomics needed
				got[th.Tid] = append(got[th.Tid], i)
			}
		})
		if th.curWsSeq != 0 {
			t.Errorf("%s: thread %d still inside loop instance %d after its share", name, th.Tid, th.curWsSeq)
		}
		th.Barrier()
		return nil
	}
	if cancellable {
		if err := ForkCallErr(Ident{}, nth, nil, body); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	} else {
		ForkCall(Ident{}, nth, func(th *Thread) { _ = body(th) })
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("%s: iteration %d ran %d times", name, i, c)
		}
	}
	if sched.Kind != SchedStatic && sched.Kind != SchedStaticChunked {
		return
	}
	for tid := range nth {
		var want []int64
		share := staticMapping(tid, nth, trip, sched.Chunk)
		for lo, hi, ok := share.take(); ok; lo, hi, ok = share.take() {
			for i := lo; i < hi; i++ {
				want = append(want, i)
			}
		}
		if !slices.Equal(got[tid], want) {
			t.Fatalf("%s: thread %d ran %v, want %v", name, tid, got[tid], want)
		}
	}
}
