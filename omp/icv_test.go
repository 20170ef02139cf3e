package omp

import (
	"sync"
	"testing"

	"gomp/internal/kmp"
)

// ICV round-trips through the runtime-library routines — the set/get pairs
// a program uses to steer the runtime, previously untested at this layer.

func TestScheduleICVRoundTrip(t *testing.T) {
	kmp.ResetICV()
	defer kmp.ResetICV()
	cases := []struct {
		kind  SchedKind
		chunk int
	}{
		{Dynamic, 64},
		{Guided, 8},
		{Static, 0},
		{Guided, 16},
		{Auto, 0},
	}
	for _, c := range cases {
		SetSchedule(c.kind, c.chunk)
		kind, chunk := GetSchedule()
		if kind != c.kind || chunk != c.chunk {
			t.Errorf("SetSchedule(%v,%d) → GetSchedule() = %v,%d", c.kind, c.chunk, kind, chunk)
		}
	}
}

func TestDynamicICVRoundTrip(t *testing.T) {
	kmp.ResetICV()
	defer kmp.ResetICV()
	SetDynamic(true)
	if !GetDynamic() {
		t.Error("SetDynamic(true) not visible through GetDynamic")
	}
	SetDynamic(false)
	if GetDynamic() {
		t.Error("SetDynamic(false) not visible through GetDynamic")
	}
}

func TestThreadLimitCapsTeams(t *testing.T) {
	kmp.ResetICV()
	defer kmp.ResetICV()
	if GetThreadLimit() != 0 {
		t.Fatalf("default thread limit = %d, want 0 (unlimited)", GetThreadLimit())
	}
	kmp.UpdateICV(func(v *kmp.ICV) { v.ThreadLimit = 3 })
	if GetThreadLimit() != 3 {
		t.Fatalf("thread limit = %d, want 3", GetThreadLimit())
	}
	size := 0
	Parallel(func(th *Thread) {
		if th.Tid == 0 {
			size = th.NumThreads()
		}
	}, NumThreads(8))
	if size != 3 {
		t.Fatalf("team of 8 with thread-limit 3 forked %d threads", size)
	}
}

func TestMaxActiveLevelsICV(t *testing.T) {
	kmp.ResetICV()
	defer kmp.ResetICV()
	if GetMaxActiveLevels() != 1 {
		t.Fatalf("default max-active-levels = %d, want 1", GetMaxActiveLevels())
	}
	SetMaxActiveLevels(2)
	if GetMaxActiveLevels() != 2 {
		t.Fatalf("round trip = %d, want 2", GetMaxActiveLevels())
	}
	SetMaxActiveLevels(-5) // ignored, per the standard
	if GetMaxActiveLevels() != 2 {
		t.Fatalf("negative set changed the ICV to %d", GetMaxActiveLevels())
	}

	// Levels 1 and 2 fork, level 3 serialises.
	var level3Size int
	var mu sync.Mutex
	Parallel(func(outer *Thread) {
		Parallel(func(mid *Thread) {
			if GetActiveLevel() != 2 {
				return
			}
			Parallel(func(inner *Thread) {
				mu.Lock()
				level3Size = inner.NumThreads()
				mu.Unlock()
			}, NumThreads(2))
		}, NumThreads(2))
	}, NumThreads(2))
	if level3Size != 1 {
		t.Fatalf("level-3 region forked %d threads with max-active-levels 2, want 1", level3Size)
	}
}

func TestCancellationICVRoundTrip(t *testing.T) {
	kmp.ResetICV()
	defer kmp.ResetICV()
	if GetCancellation() {
		t.Error("cancel-var set by default")
	}
	SetCancellation(true)
	if !GetCancellation() {
		t.Error("SetCancellation(true) not visible through GetCancellation")
	}
	SetCancellation(false)
	if GetCancellation() {
		t.Error("SetCancellation(false) not visible through GetCancellation")
	}
}

// GetWtime must be monotonic within a goroutine and measure real elapsed
// time consistently across goroutines: all threads share one epoch, as
// omp_get_wtime's "time in seconds since some time in the past" requires of
// a single device.
func TestGetWtimeMonotonicAcrossGoroutines(t *testing.T) {
	start := GetWtime()
	if GetWtick() <= 0 {
		t.Fatalf("GetWtick() = %v, want > 0", GetWtick())
	}
	const n = 8
	times := make([]float64, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prev := GetWtime()
			for i := 0; i < 1000; i++ {
				now := GetWtime()
				if now < prev {
					t.Errorf("goroutine %d: wtime went backwards: %v < %v", g, now, prev)
					return
				}
				prev = now
			}
			times[g] = prev
		}(g)
	}
	wg.Wait()
	for g, ts := range times {
		if ts < start {
			t.Errorf("goroutine %d: final wtime %v before the caller's start %v (different epoch?)", g, ts, start)
		}
	}
}
