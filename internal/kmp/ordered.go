package kmp

// The ordered construct (OpenMP 5.2 §10.4.2): inside a worksharing loop
// carrying the ordered clause, the ordered region of each iteration executes
// in sequential iteration order. The loop descriptor keeps orderedIter, a
// ticket: every iteration below it has finished its ordered region (or never
// had one).
//
// The ticket moves once per chunk. A thread holding chunk [lo, hi) waits, at
// the first ordered region it encounters in the chunk, for ticket >= lo; its
// later ordered regions in the chunk neither wait nor touch the ticket. It
// publishes hi once (CAS-max): from Ordered as soon as every iteration of
// the chunk has run its region, otherwise when it retires the chunk
// (orderedFinishChunk, at its next DispatchNext).
//
// libomp's __kmpc_end_ordered instead advances the ticket by one after every
// region. The two are equivalent because only the holder of [lo, hi) can
// move the ticket inside that range: every other thread waits for a ticket
// at or above its own chunk's lo, which is at least hi. The per-iteration
// increments therefore have no reader; here they would only land on the line
// the next chunk's holder is polling.
//
// The ordered clause puts the loop on a shared range (DispatchInit), the one
// configuration that issues chunks in increasing iteration order, which the
// protocol relies on: the thread holding the lowest outstanding chunk is
// never waiting on a higher one, so the ticket chain cannot deadlock. This is
// exactly why the OpenMP spec forbids combining ordered with the
// nonmonotonic modifier. (An ordered static loop keeps schedule(static)'s
// mapping instead, in which each thread's chunks also ascend.)

// Ordered executes body as the ordered region of the current iteration of
// the innermost enclosing worksharing loop. The loop must carry the ordered
// clause and the body must be encountered at most once per iteration, in
// iteration order within the chunk — which the canonical lowering (a
// sequential scan of the chunk) guarantees. Outside an ordered-clause loop
// the body runs immediately: a serialised region, an orphaned construct, or
// a plain unordered loop all degenerate to direct execution.
func (t *Thread) Ordered(body func()) {
	if t == nil {
		body()
		return
	}
	b := t.curLoop
	if b == nil || !b.ordered || t.curChunkHi <= t.curChunkLo {
		body()
		return
	}
	// The wait is a cancellation point: predecessors of a cancelled loop
	// may never run their ordered regions, so waiting on would deadlock.
	if t.orderedSeen == 0 && !t.orderedTurn(b) {
		return
	}
	body()
	t.orderedSeen++
	if t.orderedSeen == t.curChunkHi-t.curChunkLo {
		t.orderedPublish(b)
	}
}

// orderedTurn waits until the ticket reaches the start of the thread's chunk
// and reports whether the chunk may run its ordered regions: false once the
// loop is cancelled, whether or not the ticket arrived.
func (t *Thread) orderedTurn(b *dispatchBuf) bool {
	lo := t.curChunkLo
	t.wait(func() bool { return b.orderedIter.Load() >= lo || t.loopCancelled() })
	return !t.loopCancelled()
}

// orderedPublish hands the ticket on past the thread's chunk and wakes the
// threads that may be parked waiting for it. It runs once per chunk, by the
// holder, after its turn came, so the ticket is in [lo, hi) here; the store
// is a CAS-max all the same, so that no publish can ever move the ticket
// back under a successor that has already run. It wakes the whole team: at
// four threads, waking only the thread parked on this ticket was no faster
// (and slower for chunk 1 with four processors, where the woken threads
// spin and are ready sooner for their own turn).
func (t *Thread) orderedPublish(b *dispatchBuf) {
	for {
		cur := b.orderedIter.Load()
		if cur >= t.curChunkHi {
			return
		}
		if b.orderedIter.CompareAndSwap(cur, t.curChunkHi) {
			break
		}
	}
	t.team.wakeTeam(t)
}

// orderedFinishChunk retires the thread's previous chunk from the ordered
// ticket chain before it claims the next one — libomp's __kmp_dispatch_finish.
// A chunk that ran some but not all of its ordered regions already holds
// the ticket and publishes at once; one that ran none first waits for its
// turn, so iterations without an ordered region cannot let a successor's
// region overtake a predecessor's.
func (t *Thread) orderedFinishChunk(b *dispatchBuf) {
	n := t.curChunkHi - t.curChunkLo
	if n > 0 && t.orderedSeen < n && (t.orderedSeen > 0 || t.orderedTurn(b)) {
		t.orderedPublish(b)
	}
	t.curChunkLo, t.curChunkHi, t.orderedSeen = 0, 0, 0
}
