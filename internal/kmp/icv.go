package kmp

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// WaitPolicy controls how long threads spin before parking while they wait
// at barriers, at the region join and between regions (the OMP_WAIT_POLICY
// environment variable; see "Waiting" in the package comment).
type WaitPolicy int

const (
	// WaitPassive parks waiting threads quickly, yielding the processor.
	// It is the default, and the right choice when teams are larger than
	// the machine (oversubscription).
	WaitPassive WaitPolicy = iota
	// WaitActive spins longer before parking, reducing wake-up latency
	// when every team thread has a core of its own.
	WaitActive
)

// NestedMaxLevels is the max-active-levels value the deprecated nested
// switch (SetNested(true), OMP_NESTED) maps onto: effectively unlimited
// nesting, the pre-5.0 meaning of nest-var = true.
const NestedMaxLevels = 1 << 30

// ICV holds the internal control variables of the runtime, the subset of the
// OpenMP 5.2 ICV table that loop directives consult. A single global set is
// kept (device 0); per-team values are snapshotted at fork.
type ICV struct {
	// NumThreads is nthreads-var: team size when no num_threads clause is
	// present.
	NumThreads int
	// RunSched is run-sched-var: what schedule(runtime) resolves to.
	RunSched Sched
	// Dynamic is dyn-var: whether the runtime may shrink requested teams.
	Dynamic bool
	// MaxActiveLevels is max-active-levels-var: the number of nested
	// parallel regions that may be active (more than one thread) at once.
	// The default of 1 serialises nested regions — OpenMP 5.x's
	// replacement for the deprecated nest-var, which this runtime keeps
	// only as a compatibility view (MaxActiveLevels > 1).
	MaxActiveLevels int
	// Cancellation is cancel-var (OMP_CANCELLATION): whether the cancel
	// directive may activate cancellation. Regions launched through the
	// error/context entry point are cancellable regardless.
	Cancellation bool
	// WaitPolicy is wait-policy-var.
	WaitPolicy WaitPolicy
	// ThreadLimit caps the total size of any team (thread-limit-var);
	// 0 means unlimited.
	ThreadLimit int
}

// The live ICV set is published through an atomic pointer to an immutable
// copy: readers (every fork) pay one atomic load and a struct copy, no lock
// acquisition — the old RWMutex read path was one of the two global locks on
// the fork fast path. Writers clone, mutate and swap under icvMu, which only
// serialises concurrent updaters.
var (
	icvMu  sync.Mutex
	icvPtr atomic.Pointer[ICV]
)

// defaultICV builds the boot ICV set from the environment, mirroring
// libomp's __kmp_env_initialize: OMP_NUM_THREADS, OMP_SCHEDULE, OMP_DYNAMIC,
// OMP_NESTED, OMP_WAIT_POLICY, OMP_THREAD_LIMIT.
func defaultICV() ICV {
	v := ICV{
		NumThreads:      runtime.GOMAXPROCS(0),
		RunSched:        Sched{Kind: SchedStatic},
		WaitPolicy:      WaitPassive,
		MaxActiveLevels: 1,
	}
	if s := os.Getenv("OMP_NUM_THREADS"); s != "" {
		// OMP_NUM_THREADS may be a comma list (one per nesting level);
		// only the first level is honoured here.
		first, _, _ := strings.Cut(s, ",")
		if n, err := strconv.Atoi(strings.TrimSpace(first)); err == nil && n > 0 {
			v.NumThreads = n
		}
	}
	if s := os.Getenv("OMP_SCHEDULE"); s != "" {
		if sched, err := ParseSchedule(s); err == nil {
			v.RunSched = sched
		}
	}
	if s := os.Getenv("OMP_DYNAMIC"); s != "" {
		v.Dynamic = parseBool(s)
	}
	// OMP_NESTED (deprecated in OpenMP 5.0) maps onto max-active-levels:
	// true lifts the cap, false pins it to 1. An explicit
	// OMP_MAX_ACTIVE_LEVELS, parsed after, wins over the mapping.
	if s := os.Getenv("OMP_NESTED"); s != "" {
		if parseBool(s) {
			v.MaxActiveLevels = NestedMaxLevels
		} else {
			v.MaxActiveLevels = 1
		}
	}
	if s := os.Getenv("OMP_MAX_ACTIVE_LEVELS"); s != "" {
		if n, err := strconv.Atoi(strings.TrimSpace(s)); err == nil && n >= 0 {
			v.MaxActiveLevels = n
		}
	}
	if s := os.Getenv("OMP_CANCELLATION"); s != "" {
		v.Cancellation = parseBool(s)
	}
	if s := os.Getenv("OMP_WAIT_POLICY"); strings.EqualFold(strings.TrimSpace(s), "active") {
		v.WaitPolicy = WaitActive
	}
	if s := os.Getenv("OMP_THREAD_LIMIT"); s != "" {
		if n, err := strconv.Atoi(strings.TrimSpace(s)); err == nil && n > 0 {
			v.ThreadLimit = n
		}
	}
	return v
}

func parseBool(s string) bool {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}

// GetICV returns a copy of the current global ICV set, initialising it from
// the environment on first use. Lock-free after initialisation.
func GetICV() ICV {
	if p := icvPtr.Load(); p != nil {
		return *p
	}
	icvMu.Lock()
	defer icvMu.Unlock()
	if p := icvPtr.Load(); p != nil {
		return *p
	}
	v := defaultICV()
	icvPtr.Store(&v)
	return v
}

// UpdateICV applies f to a clone of the global ICV set and publishes it. It
// backs omp_set_num_threads, omp_set_schedule, omp_set_dynamic and friends.
func UpdateICV(f func(*ICV)) {
	icvMu.Lock()
	defer icvMu.Unlock()
	var v ICV
	if p := icvPtr.Load(); p != nil {
		v = *p
	} else {
		v = defaultICV()
	}
	f(&v)
	if v.NumThreads < 1 {
		v.NumThreads = 1
	}
	if v.MaxActiveLevels < 0 {
		v.MaxActiveLevels = 0 // 0 is legal: every region serialises
	}
	icvPtr.Store(&v)
}

// ResetICV re-reads the environment, discarding programmatic changes.
// Intended for tests.
func ResetICV() {
	icvMu.Lock()
	defer icvMu.Unlock()
	v := defaultICV()
	icvPtr.Store(&v)
}
