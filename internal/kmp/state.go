package kmp

import (
	"sync"
	"sync/atomic"
)

// Live worker-state words: the runtime half of the /debug/gomp surface.
//
// Every pooled thread carries one packed atomic word — a WorkerState in
// the low 32 bits and an interned region-location id in the high 32 —
// updated with single atomic stores on the paths the thread already
// owns (fork entry, barrier arrival, steal sweeps, park/wake). A
// sampler (ReadStatus, serving /debug/gomp/status) snapshots every
// team's words without stopping the world, taking no lock any runtime
// hot path ever touches: the only shared state is the word itself.
//
// Three pieces make the snapshot race-free under the race detector
// while keeping PR 8's zero-allocation warm fork intact:
//
//   - locations are interned to small ids (internLoc) so the state word
//     can carry "which region" without publishing string headers; the
//     team's descriptor caches the lookup (loc, locA), so a warm fork
//     from the same callsite pays one struct compare, no map, no lock;
//
//   - each team mirrors its sampler-visible shape in atomics (sizeA,
//     locA, thrA) written by the owning master — the threads slice is
//     republished copy-on-write only when it grows, which is the cold
//     path;
//
//   - live non-serial teams sit in a registry (teamReg) maintained at
//     team construction and disposal, both cold paths.

// WorkerState is the instantaneous activity of one runtime thread, the
// low half of its packed state word.
type WorkerState uint32

const (
	// StateIdle: between regions, not yet waiting on the generation word
	// (also the master slot's state while its team is pooled).
	StateIdle WorkerState = iota
	// StateSpinning: waiting for the next region on the generation word's
	// spin phase.
	StateSpinning
	// StateParked: blocked on the park token after the spin phase expired.
	StateParked
	// StateRunning: executing a region body (or draining tasks).
	StateRunning
	// StateInBarrier: waiting in an explicit or worksharing barrier.
	StateInBarrier
	// StateStealing: sweeping teammates for loop iterations or tasks.
	StateStealing
)

// String returns the stable lower-case name /status reports.
func (s WorkerState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateSpinning:
		return "spinning"
	case StateParked:
		return "parked"
	case StateRunning:
		return "running"
	case StateInBarrier:
		return "in-barrier"
	case StateStealing:
		return "stealing"
	}
	return "unknown"
}

// State-word layout: WorkerState in the low 8 bits, a 24-bit transition
// sequence in bits 8..31, and the interned region-location id in the
// high 32. The sequence counter is bumped on every owner transition so
// that two samples showing the same word mean the thread has not moved
// at all in between — the hang watchdog's stuck test. Without it, a
// worker that left a barrier and re-entered the same barrier between two
// samples would be indistinguishable from one that never left.
const (
	stateBits    = 8
	stateMask    = 1<<stateBits - 1
	stateSeqBits = 24
	stateSeqMask = 1<<stateSeqBits - 1
)

func packStateWord(s WorkerState, seq, locID uint32) uint64 {
	return uint64(locID)<<32 | uint64(seq&stateSeqMask)<<stateBits | uint64(s)&stateMask
}

func unpackStateWord(w uint64) (WorkerState, uint32) {
	return WorkerState(w & stateMask), uint32(w >> 32)
}

// setRunning marks the thread as executing the region interned as locID
// and caches the id for the cheaper same-region transitions below.
// Owner-only, like all state-word writers.
func (t *Thread) setRunning(locID uint32) {
	t.stateLoc = locID
	t.stateSeq++
	t.state.Store(packStateWord(StateRunning, t.stateSeq, locID))
}

// setWait moves the thread to a transient wait state (in-barrier,
// stealing) and back, keeping the cached region id.
func (t *Thread) setWait(s WorkerState) {
	t.stateSeq++
	t.state.Store(packStateWord(s, t.stateSeq, t.stateLoc))
}

// setIdle clears the region association: the thread left its region and
// is idle, spinning for the next one, or parked.
func (t *Thread) setIdle(s WorkerState) {
	t.stateLoc = 0
	t.stateSeq++
	t.state.Store(packStateWord(s, t.stateSeq, 0))
}

// StateWord returns the thread's current state and region location.
// Safe to call from any goroutine; the word is one atomic load.
func (t *Thread) StateWord() (WorkerState, Ident) {
	s, id := unpackStateWord(t.state.Load())
	return s, locByID(id)
}

// ------------------------------------------------------- loc interning

// Location intern table: Ident → dense uint32 id, with a copy-on-write
// reverse table for id → Ident. Id 0 is reserved for "no location".
// internLoc takes the mutex, so forks cache the id per team (locA) and
// only re-intern when the callsite changes.
var locTab struct {
	mu  sync.Mutex
	ids map[Ident]uint32
	tab atomic.Pointer[[]Ident] // index id-1
}

func internLoc(loc Ident) uint32 {
	locTab.mu.Lock()
	defer locTab.mu.Unlock()
	if locTab.ids == nil {
		locTab.ids = make(map[Ident]uint32)
	}
	if id, ok := locTab.ids[loc]; ok {
		return id
	}
	var old []Ident
	if p := locTab.tab.Load(); p != nil {
		old = *p
	}
	next := append(append(make([]Ident, 0, len(old)+1), old...), loc)
	locTab.tab.Store(&next)
	id := uint32(len(next)) // 1-based: slot len(next)-1 holds loc
	locTab.ids[loc] = id
	return id
}

// locByID resolves an interned id; the zero id (or an id from another
// process run) resolves to the zero Ident.
func locByID(id uint32) Ident {
	if id == 0 {
		return Ident{}
	}
	p := locTab.tab.Load()
	if p == nil || int(id) > len(*p) {
		return Ident{}
	}
	return (*p)[id-1]
}

// -------------------------------------------------------- team registry

// teamReg tracks every live non-serial team so a sampler can find them.
// Insert at construction, remove at disposal — both cold paths.
var teamReg struct {
	mu sync.Mutex
	m  map[*Team]struct{}
}

func registerTeam(tm *Team) {
	teamReg.mu.Lock()
	if teamReg.m == nil {
		teamReg.m = make(map[*Team]struct{})
	}
	teamReg.m[tm] = struct{}{}
	teamReg.mu.Unlock()
}

func unregisterTeam(tm *Team) {
	teamReg.mu.Lock()
	delete(teamReg.m, tm)
	teamReg.mu.Unlock()
}

// liveTeams snapshots the registry: the team list every sampler
// (ReadStatus, ReadFlight, the watchdog) walks.
func liveTeams() []*Team {
	teamReg.mu.Lock()
	teams := make([]*Team, 0, len(teamReg.m))
	for tm := range teamReg.m {
		teams = append(teams, tm)
	}
	teamReg.mu.Unlock()
	return teams
}

// ------------------------------------------------------------ snapshot

// WorkerStatus is one thread's row in a status snapshot. Slot 0 of a
// team is the master slot, driven by whichever user goroutine forked
// the current region.
type WorkerStatus struct {
	Gtid   int    `json:"gtid"`
	Tid    int    `json:"tid"`
	State  string `json:"state"`
	Region string `json:"region,omitempty"`
}

// TeamStatus is one live team's row in a status snapshot.
type TeamStatus struct {
	// Region is the source location of the most recently published
	// region (still running or already joined).
	Region string `json:"region,omitempty"`
	// Size is the active team size of that region; Capacity the number
	// of thread slots grown so far (workers stay pooled between regions).
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
	// Regions counts regions published on this team since creation.
	Regions uint64         `json:"regions"`
	Workers []WorkerStatus `json:"workers"`
}

// Status is a point-in-time snapshot of the runtime's live structure:
// what /debug/gomp/status serves.
type Status struct {
	Teams []TeamStatus `json:"teams"`
	// AffinityTeams and PooledTeams count the teams of the two hot-team
	// tiers: held by goroutine slots (parked, or out running that
	// goroutine's region) and parked in the shared free lists.
	AffinityTeams int64 `json:"affinity_teams"`
	PooledTeams   int64 `json:"pooled_teams"`
	// ReservedThreads is the contention group's live extra-thread grant
	// under thread-limit-var (0 when no limit is set).
	ReservedThreads int64 `json:"reserved_threads"`
	// GtidsIssued is the high-water count of global thread ids handed
	// out since process start.
	GtidsIssued int64 `json:"gtids_issued"`
}

// ReadStatus snapshots every live team and its workers' state words
// without stopping the world: the teams are read from the registry,
// everything per-team comes from sampler-visible atomics. Threads keep
// forking, stealing and parking while the snapshot is taken, so the
// result is a consistent-enough operational view, not a barrier-quiesced
// one. Serialised (team-of-one) regions run on the caller's goroutine
// and are not tracked.
func ReadStatus() Status {
	teams := liveTeams()
	st := Status{
		AffinityTeams:   affinityCount.Load(),
		PooledTeams:     hotPoolCount.Load(),
		ReservedThreads: liveExtra.Load(),
		GtidsIssued:     gtidCounter.Load(),
	}
	for _, tm := range teams {
		// Load size before the thread snapshot: resize publishes the
		// grown snapshot first, so this order (plus the clamp below, for
		// the window between registry read and disposal) guarantees
		// Size <= Capacity in every interleaving.
		size := int(tm.sizeA.Load())
		thp := tm.thrA.Load()
		if thp == nil {
			continue // disposed between registry read and here
		}
		threads := *thp
		if size > len(threads) {
			size = len(threads)
		}
		ts := TeamStatus{
			Region:   locByID(tm.locA.Load()).String(),
			Size:     size,
			Capacity: len(threads),
			Regions:  tm.gen.Load() >> genNBits,
			Workers:  make([]WorkerStatus, len(threads)),
		}
		for i, th := range threads {
			s, loc := th.StateWord()
			ts.Workers[i] = WorkerStatus{
				Gtid:   th.Gtid,
				Tid:    th.Tid,
				State:  s.String(),
				Region: loc.String(),
			}
		}
		st.Teams = append(st.Teams, ts)
	}
	// Stable order: by master gtid (map iteration order is random).
	sortTeamStatus(st.Teams)
	return st
}

func sortTeamStatus(ts []TeamStatus) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && masterGtid(ts[j]) < masterGtid(ts[j-1]); j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

func masterGtid(t TeamStatus) int {
	if len(t.Workers) == 0 {
		return 0
	}
	return t.Workers[0].Gtid
}
