package kmp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// registrySlots counts the registry's entries: all of them, and those whose
// goroutine is in no region (cur == nil), which can only be goroutines
// between regions with a team parked — or goroutines that are gone.
func registrySlots() (total, unbound int) {
	for i := range goidReg {
		s := &goidReg[i]
		s.mu.RLock()
		for _, sl := range s.m {
			total++
			if sl.cur.Load() == nil {
				unbound++
			}
		}
		s.mu.RUnlock()
	}
	return total, unbound
}

// registryDrains waits for the registry to empty: after TrimTeams with no
// region in flight the only entries left belong to disposed teams' workers,
// which drop them as they exit.
func registryDrains() (left int) {
	for i := 0; i < 10000; i++ {
		if left, _ = registrySlots(); left == 0 {
			break
		}
		runtime.Gosched()
	}
	return left
}

// Nested regions stack through the goroutine's one slot: inside an inner
// region Current is the inner thread, and at its join the binding of the
// enclosing region comes back — for a real inner team and a serialised one
// alike — down to nil once the outermost region has joined.
func TestNestedRegionRestoresCurrent(t *testing.T) {
	ResetICV()
	defer ResetICV()
	if Current() != nil {
		t.Fatal("test goroutine is bound before any region")
	}
	for _, levels := range []int{1, 2} { // inner region serialised, then forked for real
		UpdateICV(func(v *ICV) { v.MaxActiveLevels = levels })
		ForkCall(Ident{}, 2, func(outer *Thread) {
			if Current() != outer {
				t.Errorf("levels=%d: Current() in the outer region is not its thread", levels)
			}
			var ran atomic.Int32
			ForkCall(Ident{}, 2, func(inner *Thread) {
				ran.Add(1)
				if cur := Current(); cur != inner || cur == outer {
					t.Errorf("levels=%d: Current() in the inner region is not the inner thread", levels)
				}
				if inner.Level != 2 || inner.ActiveLevel != levels {
					t.Errorf("levels=%d: inner thread at level %d, active level %d", levels, inner.Level, inner.ActiveLevel)
				}
			})
			if want := int32(levels); ran.Load() != want {
				t.Errorf("levels=%d: inner region ran %d bodies, want %d", levels, ran.Load(), want)
			}
			if Current() != outer {
				t.Errorf("levels=%d: the inner join did not restore the outer thread", levels)
			}
		})
		if Current() != nil {
			t.Fatalf("levels=%d: test goroutine still bound after the outer join", levels)
		}
	}
}

// Goroutines die silently. The teams they leave parked in their slots must
// stay bounded by the affinity cap however many of them there were, must not
// keep more registry entries than teams, and must all be reclaimed — slot
// and workers — by TrimTeams.
func TestOrphanedTeamsBoundedAndReclaimed(t *testing.T) {
	TrimTeams()
	orphans := int(affinityCap()) + 40
	var wg sync.WaitGroup
	for i := 0; i < orphans; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ForkCall(Ident{}, 2, func(th *Thread) { th.Barrier() })
		}()
		if i%8 == 7 {
			wg.Wait() // waves: later goroutines find the earlier ones' teams pooled
		}
	}
	wg.Wait()
	parked := affinityCount.Load()
	if parked == 0 || parked > affinityCap() {
		t.Errorf("%d orphaned teams parked, want 1..%d", parked, affinityCap())
	}
	if _, unbound := registrySlots(); int64(unbound) != parked {
		t.Errorf("%d registry entries for goroutines in no region, but %d parked teams", unbound, parked)
	}
	TrimTeams()
	if a, p := affinityCount.Load(), hotPoolCount.Load(); a != 0 || p != 0 {
		t.Errorf("after TrimTeams: affinity=%d pool=%d, want 0/0", a, p)
	}
	if left := registryDrains(); left != 0 {
		t.Errorf("TrimTeams left %d entries of departed goroutines in the registry", left)
	}
	if live := len(liveTeams()); live != 0 {
		t.Errorf("%d teams survive TrimTeams with no region in flight: unreachable, their workers leaked", live)
	}
}

// Sixty-four goroutines forking at once, on fewer, as many and more
// processors than a team has threads. Every region must run whole, and when
// the dust settles every team must be either reusable — a second wave runs
// on what the first one parked — or disposed: a team the registry lost
// track of would outlive TrimTeams in the samplers' team list.
func TestConcurrentForkersLeaveTeamsReusable(t *testing.T) {
	const forkers = 64
	rounds := 200
	if testing.Short() {
		rounds = 20
	}
	wave := func(t *testing.T, rounds int) {
		var wg sync.WaitGroup
		for g := 0; g < forkers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				n := 2 + g%2
				for r := 0; r < rounds; r++ {
					var ran atomic.Int32
					ForkCall(Ident{}, n, func(th *Thread) {
						ran.Add(1)
						th.Barrier()
						if Current() != th {
							t.Errorf("forker %d: Current() is not the region's thread", g)
						}
					})
					if int(ran.Load()) != n {
						t.Errorf("forker %d round %d: %d bodies ran, want %d", g, r, ran.Load(), n)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			TrimTeams()
			wave(t, rounds)
			if a, p := affinityCount.Load(), hotPoolCount.Load(); a > affinityCap() || p > hotPoolCap() {
				t.Errorf("parked teams over their caps: affinity=%d/%d pool=%d/%d", a, affinityCap(), p, hotPoolCap())
			}
			wave(t, 1)
			TrimTeams()
			if live := len(liveTeams()); live != 0 {
				t.Errorf("%d teams survive TrimTeams with no region in flight", live)
			}
			if left := registryDrains(); left != 0 {
				t.Errorf("%d registry entries left after every team was disposed", left)
			}
		})
	}
}

// A panic that leaves a region through the master's body must not leave the
// goroutine bound to a dead thread, its affinity claim and thread grant
// taken, or the team's workers parked for ever; and one a static loop body raises
// and the region recovers from must not leave the thread "inside" the loop.
func TestPropagatedPanicReleasesSlot(t *testing.T) {
	ResetICV()
	defer ResetICV()
	UpdateICV(func(v *ICV) { v.ThreadLimit = 8 })
	TrimTeams()
	panics := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	for _, n := range []int{2, 1} { // a real team (found parked: the claim is kept), then a serialised region
		ForkCall(Ident{}, n, func(*Thread) {})
		ctx, stop := context.WithCancel(context.Background())
		r := panics(func() {
			ForkCallCtx(Ident{}, n, ctx, func(th *Thread) {
				if th.Tid == 0 {
					panic("boom")
				}
				th.Barrier() // the master never arrives
			})
		})
		stop() // the watcher is gone: this reaches no team
		if r != "boom" {
			t.Fatalf("n=%d: recovered %v, want the body's panic", n, r)
		}
		if Current() != nil {
			t.Errorf("n=%d: goroutine still bound to the dead region's thread", n)
		}
		if a, l := affinityCount.Load(), liveExtra.Load(); a != 0 || l != 0 {
			t.Errorf("n=%d: affinity claims=%d, granted threads=%d after the panic, want 0/0", n, a, l)
		}
		if err := ForkCallErr(Ident{}, n, nil, func(*Thread) error { return nil }); err != nil {
			t.Errorf("n=%d: next region on the goroutine: %v", n, err)
		}
		TrimTeams()
		if left, live := registryDrains(), len(liveTeams()); left != 0 || live != 0 {
			t.Errorf("n=%d: %d registry entries, %d teams left: the abandoned team's workers leaked", n, left, live)
		}
	}
	ForkCall(Ident{}, 2, func(th *Thread) {
		panics(func() { Loop(th, Ident{}, Sched{Kind: SchedStatic}, 8, func(lo, hi int64) { panic("boom") }) })
		if th.curWsSeq != 0 {
			t.Errorf("thread %d: still inside loop instance %d after its body panicked", th.Tid, th.curWsSeq)
		}
	})
}
