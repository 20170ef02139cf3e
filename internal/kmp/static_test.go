package kmp

import (
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

// Property: StaticChunked covers [0,trip) exactly once across the team, with
// chunk c assigned to thread c mod nth.
func TestStaticChunkedPartition(t *testing.T) {
	check := func(trip int64, nth int, chunk int64) bool {
		seen := make([]int, trip)
		for tid := 0; tid < nth; tid++ {
			StaticChunked(tid, nth, trip, chunk, func(b, e int64) {
				if b >= e {
					return
				}
				wantTid := int((b / chunk) % int64(nth))
				if wantTid != tid {
					t.Fatalf("chunk [%d,%d) ran on tid %d, want %d", b, e, tid, wantTid)
				}
				for i := b; i < e; i++ {
					seen[i]++
				}
			})
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

func TestForStaticBlockVsChunked(t *testing.T) {
	// Executed through a real team: every iteration exactly once.
	for _, chunk := range []int64{0, 1, 5} {
		const trip = 103
		counts := make([]int32, trip)
		ForkCall(Ident{}, 4, func(th *Thread) {
			forStatic(th, trip, chunk, func(b, e int64) {
				for i := b; i < e; i++ {
					counts[i]++ // disjoint writes, no atomics needed
				}
			})
			th.Barrier()
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("chunk=%d: iteration %d ran %d times", chunk, i, c)
			}
		}
	}
}

func TestLastIterStatic(t *testing.T) {
	// Block: the thread owning the final iteration.
	for _, tc := range []struct {
		nth   int
		trip  int64
		chunk int64
	}{{4, 100, 0}, {4, 100, 7}, {3, 10, 1}, {8, 5, 0}, {5, 0, 0}} {
		owners := 0
		for tid := 0; tid < tc.nth; tid++ {
			if LastIterStatic(tid, tc.nth, tc.trip, tc.chunk) {
				owners++
				// Verify by brute force that this tid really runs trip-1.
				found := false
				if tc.chunk <= 0 {
					b, e := StaticBlock(tid, tc.nth, tc.trip)
					found = b <= tc.trip-1 && tc.trip-1 < e
				} else {
					StaticChunked(tid, tc.nth, tc.trip, tc.chunk, func(b, e int64) {
						if b <= tc.trip-1 && tc.trip-1 < e {
							found = true
						}
					})
				}
				if !found {
					t.Fatalf("nth=%d trip=%d chunk=%d: LastIterStatic true for tid %d which does not run the last iteration",
						tc.nth, tc.trip, tc.chunk, tid)
				}
			}
		}
		wantOwners := 1
		if tc.trip == 0 {
			wantOwners = 0
		}
		if owners != wantOwners {
			t.Fatalf("nth=%d trip=%d chunk=%d: %d last-iteration owners, want %d", tc.nth, tc.trip, tc.chunk, owners, wantOwners)
		}
	}
}
