package kmp

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
)

// The tentpole claim: a warm region — team already spawned, pools primed —
// performs zero heap allocations per fork/join, serial and parallel alike.
// GC is disabled for the measurement because a collection mid-run could
// empty the sync.Pools that back the serial path and charge their refill
// to one unlucky iteration.
func TestWarmRegionZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and sync.Pool drops items at random under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, n := range []int{1, 2, 4} {
		n := n
		t.Run(fmt.Sprintf("threads=%d", n), func(t *testing.T) {
			body := func(th *Thread) { th.Barrier() }
			ForkCall(Ident{Region: "warmup"}, n, body) // spawn workers, prime pools
			if got := testing.AllocsPerRun(100, func() {
				ForkCall(Ident{Region: "warm"}, n, body)
			}); got != 0 {
				t.Fatalf("warm %d-thread region: %.1f allocs/region, want 0", n, got)
			}
		})
	}
}

// The omp-facing wrappers must not reintroduce allocations on the
// no-options path (ForkCallErr with a nil context is what omp.ParallelErr
// lowers to).
func TestWarmRegionZeroAllocErrPath(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and sync.Pool drops items at random under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	body := func(th *Thread) error { return nil }
	if err := ForkCallErr(Ident{}, 2, nil, body); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		_ = ForkCallErr(Ident{}, 2, nil, body)
	}); got != 0 {
		t.Fatalf("warm ForkCallErr region: %.1f allocs/region, want 0", got)
	}
}

// Both wait policies must give correct fork/join and barrier semantics: the
// policies differ only in how long a worker spins before parking, never in
// what it observes.
func TestWaitPolicyMatrix(t *testing.T) {
	ResetICV()
	defer ResetICV()
	for _, tc := range []struct {
		name   string
		policy WaitPolicy
	}{{"passive", WaitPassive}, {"active", WaitActive}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			UpdateICV(func(v *ICV) { v.WaitPolicy = tc.policy })
			const n, rounds = 4, 50
			for round := 0; round < rounds; round++ {
				var before, after atomic.Int32
				ForkCall(Ident{}, n, func(th *Thread) {
					before.Add(1)
					th.Barrier()
					if before.Load() != n {
						t.Errorf("round %d: passed barrier with %d arrivals", round, before.Load())
					}
					after.Add(1)
				})
				if after.Load() != n {
					t.Fatalf("round %d: %d bodies ran, want %d", round, after.Load(), n)
				}
			}
		})
	}
}

// Many root goroutines hammer acquire/release concurrently: the affinity
// cache and the sharded pool must hand every root a private team (bodies
// run exactly once per region) and must never exceed their caps by more
// than the transient in-flight excess. Run under -race this exercises the
// affinity delete/reinsert against pool scans and cap checks.
func TestHotTeamConcurrentRoots(t *testing.T) {
	const roots, rounds, n = 16, 50, 3
	var wg sync.WaitGroup
	for r := 0; r < roots; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var count atomic.Int32
				ForkCall(Ident{}, n, func(th *Thread) {
					count.Add(1)
					th.Barrier()
				})
				if count.Load() != n {
					t.Errorf("region ran %d bodies, want %d", count.Load(), n)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// A root that forks repeatedly must hit its affinity-cached team: the
// second acquire from the same goroutine returns the team the first
// released. (Different roots may still collide on the global pool — only
// same-root reuse is guaranteed.)
func TestTeamAffinityReuse(t *testing.T) {
	var first, second *Team
	ForkCall(Ident{}, 2, func(th *Thread) {
		if th.Tid == 0 {
			first = th.Team()
		}
	})
	ForkCall(Ident{}, 2, func(th *Thread) {
		if th.Tid == 0 {
			second = th.Team()
		}
	})
	if first == nil || first != second {
		t.Fatalf("affinity cache missed: first=%p second=%p", first, second)
	}
}

// TrimTeams racing live regions: draining the pools must only dispose idle
// teams, never one a region holds, and regions forked after a trim must
// work from cold. Run under -race this exercises dispose()'s publish
// against worker parking.
func TestTrimTeamsRacesRegions(t *testing.T) {
	const roots, rounds = 8, 30
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				TrimTeams()
			}
		}
	}()
	var forkers sync.WaitGroup
	for r := 0; r < roots; r++ {
		forkers.Add(1)
		go func() {
			defer forkers.Done()
			for i := 0; i < rounds; i++ {
				var count atomic.Int32
				ForkCall(Ident{}, 2, func(th *Thread) {
					count.Add(1)
					th.Barrier()
				})
				if count.Load() != 2 {
					t.Errorf("region ran %d bodies, want 2", count.Load())
					return
				}
			}
		}()
	}
	forkers.Wait()
	close(stop)
	wg.Wait()
}

// After TrimTeams with no regions in flight both tiers must be empty, and
// the next fork must rebuild from cold and still be correct.
func TestTrimTeamsDrains(t *testing.T) {
	for i := 0; i < 4; i++ {
		ForkCall(Ident{}, 2, func(th *Thread) { th.Barrier() })
	}
	TrimTeams()
	if a, p := affinityCount.Load(), hotPoolCount.Load(); a != 0 || p != 0 {
		t.Fatalf("after TrimTeams: affinity=%d pool=%d, want 0/0", a, p)
	}
	var count atomic.Int32
	ForkCall(Ident{}, 4, func(th *Thread) { count.Add(1); th.Barrier() })
	if count.Load() != 4 {
		t.Fatalf("post-trim region ran %d bodies, want 4", count.Load())
	}
}

// The release path must respect the pool caps: flooding release with more
// teams than the caps admit disposes the overflow instead of growing the
// free lists without bound.
func TestReleaseTeamRespectsCaps(t *testing.T) {
	TrimTeams()
	const flood = 256
	var wg sync.WaitGroup
	for r := 0; r < flood; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ForkCall(Ident{}, 2, func(th *Thread) { th.Barrier() })
		}()
	}
	wg.Wait()
	if a, cap := affinityCount.Load(), affinityCap(); a > cap {
		t.Errorf("affinity cache %d exceeds cap %d", a, cap)
	}
	if p, cap := hotPoolCount.Load(), hotPoolCap(); p > cap {
		t.Errorf("hot pool %d exceeds cap %d", p, cap)
	}
	TrimTeams()
}

// Cancellation racing park/wake: one thread cancels the region while the
// rest sit in barriers (parked or spinning, depending on policy). Every
// thread must leave, the team must be reusable, and — under -race — the
// cancel flag store must be properly ordered against the barrier words.
func TestCancelRacesParkWake(t *testing.T) {
	ResetICV()
	UpdateICV(func(v *ICV) { v.Cancellation = true })
	defer ResetICV()
	for _, policy := range []WaitPolicy{WaitPassive, WaitActive} {
		UpdateICV(func(v *ICV) { v.WaitPolicy = policy })
		const n, rounds = 4, 40
		for round := 0; round < rounds; round++ {
			var entered atomic.Int32
			ForkCall(Ident{}, n, func(th *Thread) {
				entered.Add(1)
				if th.Tid == round%n {
					th.Cancel(CancelParallel)
				}
				// Cancellation barriers: released by arrival or by cancel.
				th.Barrier()
				th.Barrier()
			})
			if entered.Load() != n {
				t.Fatalf("policy %v round %d: %d bodies entered, want %d", policy, round, entered.Load(), n)
			}
		}
	}
}

// Exactly-once over a nested grid: with nesting enabled, outer×inner
// non-serialised regions must run each (outer tid, inner tid) cell exactly
// once, across repeated rounds reusing pooled teams at both levels.
func TestNestedExactlyOnceGrid(t *testing.T) {
	ResetICV()
	UpdateICV(func(v *ICV) {
		v.MaxActiveLevels = NestedMaxLevels
		v.ThreadLimit = 64
	})
	defer ResetICV()
	const outerN, innerN, rounds = 3, 4, 10
	for round := 0; round < rounds; round++ {
		var grid [outerN][innerN]atomic.Int32
		ForkCall(Ident{}, outerN, func(outer *Thread) {
			ot := outer.Tid
			ForkCall(Ident{}, innerN, func(inner *Thread) {
				grid[ot][inner.Tid].Add(1)
				inner.Barrier()
			})
			outer.Barrier()
		})
		for o := 0; o < outerN; o++ {
			for i := 0; i < innerN; i++ {
				if c := grid[o][i].Load(); c != 1 {
					t.Fatalf("round %d: cell (%d,%d) ran %d times, want 1", round, o, i, c)
				}
			}
		}
	}
}

// Nested forks must stay within ThreadLimit: when the contention group's
// budget is exhausted, inner regions shrink (possibly to serial) rather
// than oversubscribing, and the reservation must be returned at join so
// later rounds get full-size teams again.
func TestNestedThreadLimitReservation(t *testing.T) {
	ResetICV()
	UpdateICV(func(v *ICV) {
		v.MaxActiveLevels = NestedMaxLevels
		v.ThreadLimit = 6
	})
	defer ResetICV()
	for round := 0; round < 5; round++ {
		var outerSize atomic.Int32
		var live, peak atomic.Int32
		ForkCall(Ident{}, 4, func(outer *Thread) {
			if outer.Tid == 0 {
				outerSize.Store(int32(outer.NumThreads()))
			}
			ForkCall(Ident{}, 4, func(inner *Thread) {
				n := live.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				inner.Barrier()
				live.Add(-1)
			})
			outer.Barrier()
		})
		if outerSize.Load() != 4 {
			t.Fatalf("round %d: outer team %d, want 4", round, outerSize.Load())
		}
		// 4 outer + at most 2 extra grants = never more than 6 bodies alive.
		if p := peak.Load(); p > 6 {
			t.Fatalf("round %d: %d inner bodies alive at once, exceeds thread-limit 6", round, p)
		}
		if extra := liveExtra.Load(); extra != 0 {
			t.Fatalf("round %d: %d reserved threads leaked past join", round, extra)
		}
	}
}

// The goroutine-identity read that anchors the thread registry and with it
// team affinity: single-digit nanoseconds on amd64/arm64 (direct g read),
// microseconds elsewhere (stack-header parse).
func BenchmarkGoid(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = goid()
	}
}
