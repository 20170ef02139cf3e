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
