package omp_test

import (
	"sync/atomic"
	"testing"

	"gomp/omp"
)

// The ordered construct through the public surface: a parallel loop carrying
// OrderedClause must run its Ordered regions in iteration order, under every
// schedule kind the clause can combine with.
func TestOrderedParallelFor(t *testing.T) {
	for _, opts := range [][]omp.Option{
		{omp.OrderedClause()},
		{omp.OrderedClause(), omp.Schedule(omp.Dynamic, 1)},
		{omp.OrderedClause(), omp.Schedule(omp.Dynamic, 7, omp.Monotonic)},
		{omp.OrderedClause(), omp.Schedule(omp.Guided, 4)},
		{omp.OrderedClause(), omp.Schedule(omp.Static, 5)},
	} {
		const trip = 200
		var got []int64
		omp.Parallel(func(th *omp.Thread) {
			omp.ForRange(th, trip, func(lo, hi int64) {
				for i := lo; i < hi; i++ {
					omp.Ordered(th, func() { got = append(got, i) })
				}
			}, opts...)
		}, omp.NumThreads(4))
		if len(got) != trip {
			t.Fatalf("ordered ran %d regions, want %d", len(got), trip)
		}
		for i, v := range got {
			if v != int64(i) {
				t.Fatalf("position %d holds iteration %d (out of order)", i, v)
			}
		}
	}
}

// Ordered binds to a team of one (orphaned / serialised constructs) by
// degenerating to direct execution.
func TestOrderedSerialised(t *testing.T) {
	var got []int64
	omp.ParallelFor(10, func(th *omp.Thread, i int64) {
		omp.Ordered(th, func() { got = append(got, i) })
	}, omp.NumThreads(1), omp.OrderedClause())
	if len(got) != 10 {
		t.Fatalf("serial ordered ran %d regions", len(got))
	}
	ran := false
	omp.Ordered(nil, func() { ran = true })
	if !ran {
		t.Fatal("nil-thread Ordered did not run")
	}
}

// Schedule modifiers through the public option: both engines must cover the
// iteration space exactly once.
func TestScheduleModifierCoverage(t *testing.T) {
	const trip = 5000
	for _, mod := range []omp.SchedModifier{omp.Monotonic, omp.Nonmonotonic} {
		counts := make([]atomic.Int32, trip)
		omp.ParallelFor(trip, func(_ *omp.Thread, i int64) {
			counts[i].Add(1)
		}, omp.NumThreads(8), omp.Schedule(omp.Dynamic, 3, mod))
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("mod %v: iteration %d ran %d times", mod, i, c)
			}
		}
	}
}

// schedule(auto) is now static-seed + stealing, not an alias of static: it
// must still cover exactly once, including under heavy imbalance.
func TestAutoScheduleCoverage(t *testing.T) {
	const trip = 4096
	counts := make([]atomic.Int32, trip)
	omp.ParallelFor(trip, func(_ *omp.Thread, i int64) {
		counts[i].Add(1)
		if i < 64 {
			for k := 0; k < 10000; k++ {
				_ = k * k
			}
		}
	}, omp.NumThreads(8), omp.Schedule(omp.Auto, 0))
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("auto: iteration %d ran %d times", i, c)
		}
	}
}

// OMP_SCHEDULE surface: the modifier prefix round-trips through
// ParseSchedule and Sched.String.
func TestParseScheduleModifierRoundTrip(t *testing.T) {
	s, err := omp.ParseSchedule("nonmonotonic:dynamic,4")
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != omp.Dynamic || s.Chunk != 4 || s.Mod != omp.Nonmonotonic {
		t.Fatalf("parsed %+v", s)
	}
	if got := s.String(); got != "nonmonotonic:dynamic,4" {
		t.Fatalf("String() = %q", got)
	}
	// schedule(runtime) resolving a modifier-carrying ICV must still cover.
	omp.SetSchedule(omp.Dynamic, 2)
	defer omp.SetSchedule(omp.Static, 0)
	const trip = 1000
	counts := make([]atomic.Int32, trip)
	omp.ParallelFor(trip, func(_ *omp.Thread, i int64) {
		counts[i].Add(1)
	}, omp.NumThreads(4), omp.Schedule(omp.Runtime, 0))
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("runtime: iteration %d ran %d times", i, c)
		}
	}
}

// Contradictory schedule modifiers are a caller bug and must be loud.
func TestScheduleConflictingModifiersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(Monotonic, Nonmonotonic) did not panic")
		}
	}()
	omp.ParallelFor(1, func(_ *omp.Thread, _ int64) {},
		omp.Schedule(omp.Dynamic, 1, omp.Monotonic, omp.Nonmonotonic))
}
