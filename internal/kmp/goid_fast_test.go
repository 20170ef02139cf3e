//go:build amd64 || arm64

package kmp

import (
	"sync"
	"sync/atomic"
	"testing"
)

// The assembly fast path and the portable stack parse must agree on every
// goroutine — this is the invariant the init-time offset probe certifies,
// re-checked here across a crowd of concurrent goroutines (including ones
// born after the probe ran, with ids the probe never saw). A probe that
// found no offset fails here: on these architectures it would otherwise
// silently put a runtime.Stack parse on every fork.
func TestGoidFastMatchesParse(t *testing.T) {
	if goidOffset < 0 {
		t.Fatal("the runtime.g offset probe failed: every fork would pay goidParse")
	}
	if fast, parsed := goid(), goidParse(); fast != parsed {
		t.Fatalf("main goroutine: goid()=%d goidParse()=%d", fast, parsed)
	}
	const crowd = 64
	var wg sync.WaitGroup
	for i := 0; i < crowd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if fast, parsed := goid(), goidParse(); fast != parsed {
					t.Errorf("goid()=%d goidParse()=%d", fast, parsed)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// goid must be stable across yields and stack growth: the scheduler may
// migrate the goroutine between Ms and the runtime may move its stack, but
// the id read through getg() must not change.
func TestGoidStableAcrossStackGrowth(t *testing.T) {
	var grow func(depth int) uint64
	grow = func(depth int) uint64 {
		var pad [256]byte
		_ = pad
		if depth == 0 {
			return goid()
		}
		return grow(depth - 1)
	}
	before := goid()
	if after := grow(64); after != before {
		t.Fatalf("goid changed across stack growth: %d → %d", before, after)
	}
}

// The fallback the probe degrades to must carry the registry on its own: a
// fork, a nested fork and Current() with every goid read going through
// goidParse.
func TestGoidParseFallback(t *testing.T) {
	ResetICV()
	defer ResetICV()
	saved := goidOffset
	goidOffset = -1
	t.Cleanup(func() { goidOffset = saved })

	UpdateICV(func(v *ICV) { v.MaxActiveLevels = 2 })
	var inner atomic.Int32
	ForkCall(Ident{}, 2, func(outer *Thread) {
		if id, parsed := goid(), goidParse(); id != parsed {
			t.Errorf("outer thread %d: goid()=%d goidParse()=%d", outer.Tid, id, parsed)
		}
		if Current() != outer {
			t.Errorf("outer thread %d: Current() is not its thread", outer.Tid)
		}
		ForkCall(Ident{}, 2, func(in *Thread) {
			inner.Add(1)
			if cur := Current(); cur != in || cur == outer || in.Level != 2 {
				t.Errorf("inner thread %d: Current() is not its thread", in.Tid)
			}
		})
		if Current() != outer {
			t.Errorf("outer thread %d: the nested join did not restore it", outer.Tid)
		}
	})
	if got := inner.Load(); got != 4 {
		t.Fatalf("nested regions ran %d bodies, want 4", got)
	}
	if Current() != nil {
		t.Fatal("test goroutine still bound after the join")
	}
}
