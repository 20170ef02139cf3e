package kmp

import (
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// The fork/join handshake is only as cheap as its cache-line layout: a
// field added next to the publish word or the join counter puts a master
// store under every spinning worker (or the reverse) and costs a line
// transfer per region without failing any functional test. This pins the
// layout "Hot teams and the fork fast path" (doc.go) describes.
func TestForkHandshakeLayout(t *testing.T) {
	var hs handshake
	genOff, doneOff := unsafe.Offsetof(hs.gen), unsafe.Offsetof(hs.done)
	if genOff%CacheLine != 0 || doneOff%CacheLine != 0 {
		t.Fatalf("gen at %d, done at %d: each must start a %d-byte line", genOff, doneOff, CacheLine)
	}
	// Alone: no other field — whatever fork, reset or anyone else does to it
	// — has a byte on either line.
	typ := reflect.TypeOf(&hs).Elem()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "_" || f.Name == "gen" || f.Name == "done" {
			continue
		}
		first, last := f.Offset/CacheLine, (f.Offset+f.Type.Size()-1)/CacheLine
		for _, line := range []uintptr{genOff / CacheLine, doneOff / CacheLine} {
			if first <= line && line <= last {
				t.Errorf("handshake.%s (bytes %d..%d) shares a cache line with the publish word or the join counter",
					f.Name, f.Offset, f.Offset+f.Type.Size()-1)
			}
		}
	}
	// The descriptor is the two whole lines between them: body, then shape.
	if off := unsafe.Offsetof(hs.w); off != genOff+CacheLine || unsafe.Sizeof(hs.w) != CacheLine {
		t.Errorf("work descriptor at %d, %d bytes; want the one line after gen (%d)", off, unsafe.Sizeof(hs.w), genOff+CacheLine)
	}
	if lo, hi := unsafe.Offsetof(hs.n), unsafe.Offsetof(hs.catch); lo != genOff+2*CacheLine || hi/CacheLine != lo/CacheLine || doneOff != lo+CacheLine {
		t.Errorf("shape descriptor spans bytes %d..%d, join counter at %d; want one line between the body and the join line", lo, hi, doneOff)
	}

	// Team's own fields are grouped by writer with a line of padding
	// between groups, which separates them at any allocation offset: what
	// the master stores on every warm fork (joinAt), then what everybody
	// reads (the handshake pointer through dirty), then the barrier, which
	// every arrival stores to.
	var tm Team
	if gap := unsafe.Offsetof(tm.handshake) - (unsafe.Offsetof(tm.joinAt) + unsafe.Sizeof(tm.joinAt)); gap < CacheLine {
		t.Errorf("%d bytes between Team's master-only group and its read-mostly group, want >= %d", gap, CacheLine)
	}
	if gap := unsafe.Offsetof(tm.bar) - (unsafe.Offsetof(tm.dirty) + unsafe.Sizeof(tm.dirty)); gap < CacheLine {
		t.Errorf("%d bytes between Team's read-mostly group and the barrier, want >= %d", gap, CacheLine)
	}

	// A thread's first line is read by its teammates (wake loads parked);
	// everything the owner stores per region starts on the next one.
	var th Thread
	if end := unsafe.Offsetof(th.token) + unsafe.Sizeof(th.token); end > CacheLine {
		t.Errorf("Thread's shared prefix ends at byte %d, past its first line", end)
	}
	if off := unsafe.Offsetof(th.Level); off != CacheLine {
		t.Errorf("Thread's owner-written fields start at byte %d, want %d", off, CacheLine)
	}

	// Offsets only mean lines if the allocator hands the structs out
	// line-aligned, which it does for small objects whose size is a
	// multiple of the line.
	if sz := unsafe.Sizeof(th); sz%CacheLine != 0 {
		t.Errorf("Thread is %d bytes, not a whole number of %d-byte lines: re-derive its trailing pad", sz, CacheLine)
	}
	for i := 0; i < 8; i++ {
		tm := newTeamShell(1)
		if a := uintptr(unsafe.Pointer(tm.handshake)) % CacheLine; a != 0 {
			t.Fatalf("handshake (%d bytes) allocated at offset %d into a cache line", unsafe.Sizeof(hs), a)
		}
		if a := uintptr(unsafe.Pointer(tm.threads[0])) % CacheLine; a != 0 {
			t.Fatalf("Thread (%d bytes) allocated at offset %d into a cache line", unsafe.Sizeof(th), a)
		}
	}
}

// The ordered ticket is polled by the next chunk's holder while arriving and
// detaching threads write the buffer's tag and done: a shared line would put
// those stores under each poll. dispatchBufs sit back to back in Team.disp, at any
// offset into a line, so "a line of its own" means at least a line of bytes
// between the ticket and every other field, in its own buffer and the next.
func TestOrderedTicketLayout(t *testing.T) {
	var b dispatchBuf
	off, size := unsafe.Offsetof(b.orderedIter), unsafe.Sizeof(b.orderedIter)
	typ := reflect.TypeOf(&b).Elem()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "_" || f.Name == "orderedIter" {
			continue
		}
		if end := f.Offset + f.Type.Size(); f.Offset < off && off-end < CacheLine {
			t.Errorf("dispatchBuf.%s ends %d bytes before the ordered ticket, want >= %d", f.Name, off-end, CacheLine)
		}
		if f.Offset > off {
			t.Errorf("dispatchBuf.%s follows the ordered ticket; only padding may", f.Name)
		}
	}
	if tail := unsafe.Sizeof(b) - (off + size); tail < CacheLine {
		t.Errorf("%d bytes between the ordered ticket and the next buffer's first field, want >= %d", tail, CacheLine)
	}
}

// GOMAXPROCS is sampled, not read on every fork, so a team can run with a
// stale idea of how crowded it is. A warm 2-thread team must still join
// promptly when the process drops to one processor (the master's spin has to
// let the worker run), notice the change within procsRefresh regions, and do
// both again when the processors come back.
func TestJoinSurvivesGOMAXPROCSChange(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer TrimTeams()
	const regions = procsRefresh + 8
	run := func(want int64) {
		t.Helper()
		ran := 0
		start := time.Now()
		for i := 0; i < regions; i++ {
			ForkCall(Ident{Region: "procs"}, 2, func(th *Thread) {
				if th.Tid == 1 {
					ran++
				}
			})
		}
		if ran != regions {
			t.Fatalf("worker ran %d of %d regions", ran, regions)
		}
		// ≈1 µs per region with a processor each, a few µs each while the
		// team spins on one; 1 ms each is a waiter that stopped yielding.
		if d := time.Since(start); d > regions*time.Millisecond {
			t.Errorf("%d regions took %v with GOMAXPROCS=%d", regions, d, want)
		}
		if got := procs.Load(); got != want {
			t.Errorf("cached GOMAXPROCS = %d after %d regions, want %d", got, regions, want)
		}
	}
	run(2)
	runtime.GOMAXPROCS(1)
	run(1)
	runtime.GOMAXPROCS(2)
	run(2)
}
