package trace

import (
	"testing"

	"gomp/internal/kmp"
)

// A Flush hands over rings in no fixed order: a worker's task runs can
// arrive before the master's spawns. The queue gauge must still follow the
// events' time order.
func TestTaskQueuePeakFollowsTimeOrder(t *testing.T) {
	p := New()
	p.consume([]kmp.TraceEvent{ // worker ring: runs at t=15, 25, 35
		{Kind: kmp.TraceTaskRun, Gtid: 2, When: 15, Dur: 1},
		{Kind: kmp.TraceTaskRun, Gtid: 2, When: 25, Dur: 1},
		{Kind: kmp.TraceTaskRun, Gtid: 2, When: 35, Dur: 1},
	})
	p.consume([]kmp.TraceEvent{ // master ring: spawns at t=10, 11, 20
		{Kind: kmp.TraceTaskSpawn, Gtid: 1, When: 10},
		{Kind: kmp.TraceTaskSpawn, Gtid: 1, When: 11},
		{Kind: kmp.TraceTaskSpawn, Gtid: 1, When: 20},
	})
	p.drained()
	q := &p.met.TaskQueue
	if q.Peak() != 2 || q.Value() != 0 {
		t.Errorf("task queue peak %d level %d, want 2 and 0", q.Peak(), q.Value())
	}
}

// Folding events formats nothing: rows are keyed by location, so once a
// region's row and its workers exist, a repeated batch of barrier events at
// that region allocates nothing.
func TestConsumeLocatedBatchZeroAlloc(t *testing.T) {
	p := New()
	loc := kmp.Ident{File: "a.go", Line: 3, Region: "parallel"}
	batch := make([]kmp.TraceEvent, 100)
	for i := range batch {
		batch[i] = kmp.TraceEvent{Kind: kmp.TraceBarrier, Loc: loc, Gtid: i % 2, When: int64(i), Dur: 100}
	}
	p.consume(batch)
	if got := testing.AllocsPerRun(100, func() { p.consume(batch) }); got != 0 {
		t.Errorf("consume of a 100-event barrier batch allocates %v times, want 0", got)
	}
	// The first batch, AllocsPerRun's warm-up call and its 100 runs.
	const want = 102 * 100
	if s := p.Summaries(); len(s) != 1 || s[0].Name != "a.go:3 parallel" || s[0].Barriers != want {
		t.Errorf("summaries %+v, want one row a.go:3 parallel with %d barriers", s, want)
	}
}
