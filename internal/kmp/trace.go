package kmp

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Runtime events: the kinds, the record, the one per-thread ring both the
// flight recorder and a Collector read, and the Collector itself. "Events"
// in the package comment (doc.go) describes the path as a whole.

// TraceKind labels runtime events for the instrumentation hook.
type TraceKind int

const (
	// TraceForkBegin fires when a parallel region forks. When is the fork
	// timestamp. Arg0 is the number of regions folded into the record: a
	// flight record reopened by a back-to-back region ("Events" in doc.go)
	// is a fork-begin while that region runs. Collectors never see folds.
	TraceForkBegin TraceKind = iota
	// TraceForkEnd fires when a parallel region joins. When is the fork
	// timestamp and Dur the whole region duration, so the event is a
	// complete span. Arg0 is the number of regions folded into the record
	// after its first: When+Dur is then the run's last-seen time.
	TraceForkEnd
	// TraceBarrier fires when a thread leaves an explicit barrier. When is
	// the barrier arrival and Dur the wait (including any tasks executed
	// while waiting, barriers being task scheduling points).
	TraceBarrier
	// TraceLoopInit fires when a thread initialises a dynamic loop.
	// Arg0 is the trip count, Arg1 the schedule's chunk size (0 = policy
	// default).
	TraceLoopInit
	// TraceLoopFini fires when a thread finishes a worksharing loop. When
	// is the thread's own loop entry and Dur its participation time. A
	// dynamic loop's Loc is the loop's location (matching its
	// TraceLoopInit); a static loop has no TraceLoopInit, carries the
	// enclosing region's location and is emitted only while a collector is
	// installed.
	TraceLoopFini
	// TraceLoopSteal fires when a dry thread splits off half of a
	// teammate's iteration range (nonmonotonic stealing dispatch).
	// Arg0 is the victim's global thread id, Arg1 the number of
	// iterations taken.
	TraceLoopSteal
	// TraceTaskSpawn fires when a thread defers an explicit task.
	// Arg0 is the number of depend items.
	TraceTaskSpawn
	// TraceTaskSteal fires when a thread steals a task from a teammate.
	// Arg0 is the victim's global thread id.
	TraceTaskSteal
	// TraceTaskgroup fires when a thread opens a taskgroup region.
	TraceTaskgroup
	// TraceTaskloop fires when a thread starts carving a taskloop.
	// Arg0 is the trip count.
	TraceTaskloop
	// TraceCancel fires when a thread encounters a cancel directive on a
	// cancellable team (whether or not activation succeeds). Arg0 is the
	// CancelKind.
	TraceCancel
	// TraceTaskRun fires when a deferred task's body completes. When is
	// the execution start and Dur the body time, so the event is a
	// complete span; Loc is the spawning construct's location.
	TraceTaskRun
	// TraceTaskDepStall fires when a spawned task is withheld from the
	// ready queues because depend-clause predecessors are outstanding.
	// Arg0 is the unresolved predecessor count at spawn.
	TraceTaskDepStall
	// TraceTaskDepRelease fires when a completing task releases
	// dependence successors. Arg0 is the number of successors that became
	// ready, Arg1 the number of successor edges resolved.
	TraceTaskDepRelease
)

var traceKindNames = [...]string{
	TraceForkBegin: "fork-begin", TraceForkEnd: "fork-end", TraceBarrier: "barrier",
	TraceLoopInit: "loop-init", TraceLoopFini: "loop-fini", TraceLoopSteal: "loop-steal",
	TraceTaskSpawn: "task-spawn", TraceTaskSteal: "task-steal", TraceTaskgroup: "taskgroup",
	TraceTaskloop: "taskloop", TraceCancel: "cancel", TraceTaskRun: "task-run",
	TraceTaskDepStall: "dep-stall", TraceTaskDepRelease: "dep-release",
}

// String returns a stable lower-case name for the kind, used by exporters
// and metrics.
func (k TraceKind) String() string {
	if k < 0 || int(k) >= len(traceKindNames) {
		return "unknown"
	}
	return traceKindNames[k]
}

// TraceEvent is one instrumentation record.
type TraceEvent struct {
	Kind TraceKind
	Loc  Ident
	// Tid is the team-local thread number, Gtid the global thread id of
	// the emitting thread (the timeline track identity: team-local ids
	// collide across concurrent teams, global ids do not).
	Tid  int
	Gtid int
	// NThreads is the team size on fork events.
	NThreads int
	// When is a monotonic timestamp in nanoseconds since the process
	// trace epoch (TraceNow's clock). For span-shaped kinds it is the
	// span start.
	When int64
	// Dur is the span duration in nanoseconds for span-shaped kinds
	// (fork-end, barrier, loop-fini, task-run), 0 otherwise; a folded
	// fork-begin keeps the Dur its run had when it was reopened.
	Dur int64
	// Arg0, Arg1 are per-kind payload words; see the kind constants.
	Arg0, Arg1 int64
}

var traceEpoch = time.Now()

// TraceNow returns the current monotonic trace timestamp: nanoseconds
// since the process trace epoch, the clock TraceEvent.When uses.
func TraceNow() int64 { return int64(time.Since(traceEpoch)) }

// ---------------------------------------------------------------- gate

// eventGate is the one word every event site loads: zero while neither the
// flight recorder nor a collector wants events, otherwise
//
//	bits  0-7   log2 of the ring capacity
//	bit   8     the recorder is on
//	bits 16-47  a version, bumped at every change
//	bits 48-63  the installed collector's id (0: none)
//
// Bit 8 and bits 48-63 are also each record's tag (tagRec, tagCol): they say
// whom the record was written for.
var eventGate atomic.Uint64

const (
	gateCapMask  = 0xff
	tagRec       = 1 << 8
	gateColShift = 48
	tagCol       = 0xffff << gateColShift
)

// gate and activeCol, the installed collector, are the state eventGate is
// computed from, changed only by setGate.
var (
	gate struct {
		mu      sync.Mutex
		rec     bool   // the flight recorder is on
		recLog  uint64 // log2 of the recorder's ring capacity
		version uint64
	}
	activeCol atomic.Pointer[Collector]
)

// setGate applies change to the gate state and publishes the new word.
func setGate(change func()) {
	gate.mu.Lock()
	defer gate.mu.Unlock()
	change()
	gate.version++
	var g uint64
	if gate.rec {
		g |= tagRec
	}
	capLog := gate.recLog
	if c := activeCol.Load(); c != nil {
		g |= c.id << gateColShift
		capLog = max(capLog, c.ringLog)
	}
	if g != 0 {
		g |= capLog | gate.version<<16&^tagCol
	}
	eventGate.Store(g)
}

// ringLog returns log2 of the ring capacity for records: the next power of
// two within [16, 65536].
func ringLog(records int) uint64 {
	return uint64(min(max(bits.Len(uint(max(records, 1)-1)), 4), 16))
}

// collectorOf returns the installed collector when gate word g names one.
func collectorOf(g uint64) *Collector {
	if g&tagCol == 0 {
		return nil
	}
	return activeCol.Load()
}

// ---------------------------------------------------------------- ring

// recordWords is the packed record width: kind/tag/tid/nthreads,
// loc/gtid, when, dur, arg0, arg1. Word 0 holds the kind in bits 0-7, the
// tags (bit 8, bits 48-63), the tid in bits 16-31 and the team size in bits
// 32-47; patchBit is set in it while the owner rewrites a folded record in
// place (foldJoin).
const (
	recordWords = 6
	patchBit    = 1 << 9
)

// foldRefresh is how many folds a fork-end record takes between two clock
// reads refreshing its Dur.
const foldRefresh = 64

// eventRing is one thread's event ring: mask+1 records of recordWords
// atomic words, overwritten in place. Only the owning thread writes it;
// head is the index of the next record and only grows, across resizes too,
// so an index names the same record in every ring the thread has had.
// Records below first were never copied into this ring.
type eventRing struct {
	mask  uint64
	first uint64
	buf   []atomic.Uint64
	// Owner-only: the gate word the ring was last brought up to (syncRing)
	// and a single-entry cache of the location intern table.
	gate      uint64
	lastLoc   Ident
	lastLocID uint32
	_         pad
	head      atomic.Uint64
	_         pad
}

// event writes ev into the thread's ring. g is the nonzero gate word the
// event site loaded. Owner-only: t must be the calling goroutine's thread.
func (t *Thread) event(g uint64, ev TraceEvent) {
	r := t.ring.Load()
	if r == nil || r.gate != g {
		r = t.syncRing(r, g)
	}
	h := r.head.Load()
	b := (h & r.mask) * recordWords
	r.buf[b+0].Store(uint64(uint8(ev.Kind)) | g&(tagRec|tagCol) | uint64(uint16(t.Tid))<<16 | uint64(uint16(ev.NThreads))<<32)
	r.buf[b+1].Store(uint64(r.locID(ev.Loc)) | uint64(uint32(t.Gtid))<<32)
	r.buf[b+2].Store(uint64(ev.When))
	r.buf[b+3].Store(uint64(ev.Dur))
	r.buf[b+4].Store(uint64(ev.Arg0))
	r.buf[b+5].Store(uint64(ev.Arg1))
	r.head.Store(h + 1)
}

// locID returns the id records store for loc (0 for the zero Ident), through
// the ring's single-entry cache of the intern table. Owner-only.
func (r *eventRing) locID(loc Ident) uint32 {
	if loc == (Ident{}) {
		return 0
	}
	if r.lastLocID == 0 || r.lastLoc != loc {
		r.lastLoc, r.lastLocID = loc, internLoc(loc)
	}
	return r.lastLocID
}

// foldFork folds a region that master t forks at loc with n threads into the
// newest record of t's ring, when g has the recorder on and no collector
// and that record is the closed fork-end of a region at the same loc and
// team size: it reopens the record as a fork-begin in place, reading no
// clock and appending nothing, and returns its index for foldJoin. ok false
// means the region records its own fork-begin.
func (t *Thread) foldFork(g uint64, loc Ident, n int) (i uint64, ok bool) {
	r := t.ring.Load()
	if g&(tagRec|tagCol) != tagRec || r == nil || r.gate != g {
		return 0, false
	}
	h := r.head.Load()
	if h <= r.first {
		return 0, false
	}
	i = h - 1
	b := (i & r.mask) * recordWords
	end := uint64(TraceForkEnd) | tagRec | uint64(uint16(t.Tid))<<16 | uint64(uint16(n))<<32
	if r.buf[b].Load() != end || uint32(r.buf[b+1].Load()) != r.locID(loc) {
		return 0, false
	}
	r.buf[b].Store(end&^0xff | uint64(TraceForkBegin))
	return i, true
}

// foldJoin closes the region foldFork folded into record i of master t's
// ring. While the record is still the newest, the region is counted into
// it: Arg0 grows by one and, every foldRefresh folds, Dur is refreshed from
// the clock. Otherwise the region's body recorded on this ring, and the fold
// is undone: the record closes again as it was (unless its slot has been
// reused since), and the region gets its own fork-end, starting at the
// body's oldest record still held.
func (t *Thread) foldJoin(g uint64, i uint64, loc Ident, n int) {
	r := t.ring.Load()
	h := r.head.Load()
	b := (i & r.mask) * recordWords
	if h == i+1 {
		// Readers copy the count before Dur and re-check word 0 and the
		// count after: patchBit covers the window in which Dur has moved
		// and the count not yet (eventRing.load).
		w0 := r.buf[b].Load()
		r.buf[b].Store(w0 | patchBit)
		folds := r.buf[b+4].Load() + 1
		if folds%foldRefresh == 0 {
			r.buf[b+3].Store(uint64(TraceNow() - int64(r.buf[b+2].Load())))
		}
		r.buf[b+4].Store(folds)
		r.buf[b].Store(w0 | uint64(TraceForkEnd))
		return
	}
	oldest := max(r.first, h-min(h, r.mask+1))
	if i >= oldest {
		r.buf[b].Store(r.buf[b].Load() | uint64(TraceForkEnd))
	}
	start := int64(r.buf[(max(i+1, oldest)&r.mask)*recordWords+2].Load())
	t.event(g, TraceEvent{Kind: TraceForkEnd, Loc: loc, NThreads: n, When: start, Dur: TraceNow() - start})
}

// syncRing brings the thread's ring up to gate word g: it creates or resizes
// the ring to g's capacity, carrying over the newest records at their
// indices, and attaches it to g's collector. A g older than the ring's (a
// span closing with the word loaded at its start) changes nothing.
func (t *Thread) syncRing(r *eventRing, g uint64) *eventRing {
	if r != nil && int32(uint32(g>>16)-uint32(r.gate>>16)) < 0 {
		return r
	}
	if n := uint64(1) << (g & gateCapMask); r == nil || r.mask+1 != n {
		nr := &eventRing{mask: n - 1, buf: make([]atomic.Uint64, n*recordWords)}
		if r != nil {
			h := r.head.Load()
			nr.first = max(r.first, h-min(h, n, r.mask+1))
			for i := nr.first; i < h; i++ {
				src, dst := (i&r.mask)*recordWords, (i&nr.mask)*recordWords
				for w := uint64(0); w < recordWords; w++ {
					nr.buf[dst+w].Store(r.buf[src+w].Load())
				}
			}
			nr.head.Store(h)
		}
		r = nr
		t.ring.Store(r)
	}
	r.gate = g
	if c := collectorOf(g); c != nil && c.id == g>>gateColShift {
		c.attach(t, r.head.Load())
	}
	return r
}

// read appends the records from index from up to the head whose tag bits
// under mask equal tag, oldest first, and returns the index to read from
// next and how many records from from on were overwritten before they could
// be read. Safe from any goroutine while the owner keeps writing: a record
// whose slot the writer reused during the copy, or that a fold kept
// rewriting (load), counts as overwritten, so a reader never sees a torn
// record — only loses a prefix of the oldest.
func (r *eventRing) read(out []TraceEvent, from, mask, tag uint64) ([]TraceEvent, uint64, uint64) {
	n := r.mask + 1
	h := r.head.Load()
	lo := max(from, r.first, h-min(h, n))
	lost := lo - from
	for i := lo; i < h; i++ {
		w, ok := r.load((i & r.mask) * recordWords)
		// The writer starts record i+n, which reuses this slot, only after
		// publishing head i+n. A rewrite leaves the tags alone.
		if r.head.Load() >= i+n {
			lost++
			continue
		}
		if w[0]&mask != tag {
			continue
		}
		if !ok {
			lost++
			continue
		}
		out = append(out, TraceEvent{
			Kind:     TraceKind(w[0] & 0xff),
			Tid:      int(uint16(w[0] >> 16)),
			NThreads: int(uint16(w[0] >> 32)),
			Loc:      locByID(uint32(w[1])),
			Gtid:     int(uint32(w[1] >> 32)),
			When:     int64(w[2]),
			Dur:      int64(w[3]),
			Arg0:     int64(w[4]),
			Arg1:     int64(w[5]),
		})
	}
	return out, h, lost
}

// load copies the record at word b. A fold (foldFork, foldJoin) rewrites a
// record's kind, Dur and fold count in place, and the count only grows: a
// copy whose word 0 carried patchBit, or whose word 0 or count moved under
// it, is retried, and ok is false if it kept moving.
func (r *eventRing) load(b uint64) (w [recordWords]uint64, ok bool) {
	for try := 0; try < 4; try++ {
		w[0], w[4] = r.buf[b].Load(), r.buf[b+4].Load()
		w[1], w[2], w[3], w[5] = r.buf[b+1].Load(), r.buf[b+2].Load(), r.buf[b+3].Load(), r.buf[b+5].Load()
		if w[0]&patchBit == 0 && r.buf[b].Load() == w[0] && r.buf[b+4].Load() == w[4] {
			return w, true
		}
	}
	return w, false
}

// ----------------------------------------------------------- collector

// DefaultRingSize is the per-thread ring capacity, in records, a collector
// asks for when NewCollector is given none. Rings drain at every region
// join, so the capacity bounds the history of a single region per thread.
const DefaultRingSize = 4096

// Collector receives runtime events: the analog of an OMPT tool. Install
// with SetCollector; at most one collector is active at a time (as OMPT
// allows one tool); make one with NewCollector. A collector owns no buffer:
// it keeps a cursor into the ring of every thread that recorded while it
// was installed, and Flush hands the Sink what lies between each cursor and
// that ring's head.
type Collector struct {
	// Sink receives drained events in per-ring batches, called with the
	// collector's internal lock held — it must not call back into the
	// Collector, and must not keep the slice, which is reused. Batches from
	// one ring are in emission order; batches from different rings
	// interleave arbitrarily (order cross-thread by TraceEvent.When). Nil
	// discards events at drain.
	Sink func([]TraceEvent)

	// Drained, when set, is called once at the end of every Flush that
	// delivered events, after the Sink has had every ring's batch and under
	// the same lock: the point where a consumer can put events of different
	// rings back in time order.
	Drained func()

	id      uint64 // the tag of records written for this collector
	ringLog uint64 // log2 of the ring capacity it asks for

	mu      sync.Mutex
	cursors map[*Thread]cursor
	batch   []TraceEvent
	drops   atomic.Uint64
}

// cursor is where a collector's next drain of one thread's ring starts. A
// cursor stops being open once drained after its collector was
// uninstalled: what the ring overwrites from then on was not written for
// the collector, so it no longer counts as dropped.
type cursor struct {
	pos  uint64
	open bool
}

var collectorIDs atomic.Uint32

// NewCollector returns a collector that asks for per-thread rings of
// ringSize records (rounded up to a power of two within [16, 65536]; <= 0
// means DefaultRingSize) while it is installed.
func NewCollector(ringSize int) *Collector {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Collector{
		id:      uint64(collectorIDs.Add(1)%0xffff + 1),
		ringLog: ringLog(ringSize),
		cursors: make(map[*Thread]cursor),
	}
}

// attach opens a cursor on t's ring at head, unless an open one exists.
// Called by t's owner, before it writes its first record for c.
func (c *Collector) attach(t *Thread, head uint64) {
	c.mu.Lock()
	if !c.cursors[t].open {
		c.cursors[t] = cursor{pos: head, open: true}
	}
	c.mu.Unlock()
}

// Flush drains every ring into the Sink and returns the number of events
// delivered. Safe to call concurrently with producers and with itself.
func (c *Collector) Flush() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	installed := activeCol.Load() == c
	total := 0
	for t, cur := range c.cursors {
		var lost uint64
		c.batch, cur.pos, lost = t.ring.Load().read(c.batch[:0], cur.pos, tagCol, c.id<<gateColShift)
		if cur.open {
			c.drops.Add(lost)
		}
		cur.open = installed
		c.cursors[t] = cur
		total += len(c.batch)
		if c.Sink != nil && len(c.batch) > 0 {
			c.Sink(c.batch)
		}
	}
	if c.Drained != nil && total > 0 {
		c.Drained()
	}
	return total
}

// Drops returns the number of records written for the collector that
// were overwritten before a Flush could deliver them.
func (c *Collector) Drops() uint64 { return c.drops.Load() }

// SetCollector installs c as the global event collector; nil uninstalls.
// Uninstalling does not drain: the previous collector's Flush still
// delivers what was recorded for it while it was installed.
func SetCollector(c *Collector) { setGate(func() { activeCol.Store(c) }) }

// ActiveCollector returns the installed collector, nil when none is.
func ActiveCollector() *Collector { return activeCol.Load() }
