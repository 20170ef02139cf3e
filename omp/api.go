package omp

import (
	"runtime"
	"time"

	"gomp/internal/kmp"
)

// Thread is the per-team-member execution context, re-exported from the
// runtime so user code needs only this package.
type Thread = kmp.Thread

// Sched, SchedKind and SchedModifier describe loop schedules (see the
// Schedule option).
type (
	Sched         = kmp.Sched
	SchedKind     = kmp.SchedKind
	SchedModifier = kmp.SchedModifier
)

// Schedule kinds, re-exported with their OpenMP surface names.
const (
	Static  = kmp.SchedStatic
	Dynamic = kmp.SchedDynamicChunked
	Guided  = kmp.SchedGuidedChunked
	Runtime = kmp.SchedRuntime
	Auto    = kmp.SchedAuto
)

// Schedule modifiers: Nonmonotonic licenses per-thread ranges with work
// stealing (the OpenMP 5.0 default for dynamic-family kinds), Monotonic puts
// the loop on one range the team shares (implied by the ordered clause).
const (
	Monotonic    = kmp.SchedModMonotonic
	Nonmonotonic = kmp.SchedModNonmonotonic
)

// ParseSchedule parses OMP_SCHEDULE surface syntax — including the
// monotonic:/nonmonotonic: modifier prefix — into a Sched; Sched.String
// renders the round trip ("nonmonotonic:dynamic,4").
func ParseSchedule(s string) (Sched, error) { return kmp.ParseSchedule(s) }

// Lock is omp_lock_t; NestLock is omp_nest_lock_t.
type (
	Lock     = kmp.Lock
	NestLock = kmp.NestLock
)

// NewNestLock returns an unlocked nestable lock (omp_init_nest_lock).
func NewNestLock() *NestLock { return kmp.NewNestLock() }

var wtimeEpoch = time.Now()

// GetWtime returns elapsed wall-clock seconds from a fixed per-process epoch
// (omp_get_wtime). Differences between calls measure intervals; the absolute
// value is meaningless, as the standard allows.
func GetWtime() float64 { return time.Since(wtimeEpoch).Seconds() }

// GetWtick returns the timer resolution in seconds (omp_get_wtick).
func GetWtick() float64 { return 1e-9 } // time.Time is nanosecond-resolved

// GetThreadNum returns the calling thread's number within its team
// (omp_get_thread_num); 0 outside any parallel region. Inside generated
// code prefer t.Tid — this variant pays a goroutine-registry lookup.
func GetThreadNum() int {
	if t := kmp.Current(); t != nil {
		return t.Tid
	}
	return 0
}

// GetNumThreads returns the size of the current team (omp_get_num_threads);
// 1 outside any parallel region.
func GetNumThreads() int {
	if t := kmp.Current(); t != nil {
		return t.NumThreads()
	}
	return 1
}

// GetMaxThreads returns the team size the next parallel region without a
// num_threads clause would get (omp_get_max_threads).
func GetMaxThreads() int { return kmp.GetICV().NumThreads }

// SetNumThreads sets the nthreads-var ICV (omp_set_num_threads).
func SetNumThreads(n int) {
	if n < 1 {
		return // the standard leaves this undefined; ignore like libomp
	}
	kmp.UpdateICV(func(v *kmp.ICV) { v.NumThreads = n })
}

// GetNumProcs returns the number of processors available
// (omp_get_num_procs).
func GetNumProcs() int { return runtime.NumCPU() }

// InParallel reports whether the caller is inside an active parallel region
// (omp_in_parallel).
func InParallel() bool {
	t := kmp.Current()
	return t != nil && t.InParallel()
}

// GetLevel returns the nesting depth of the enclosing parallel regions
// (omp_get_level); 0 outside any region.
func GetLevel() int {
	if t := kmp.Current(); t != nil {
		return t.Level
	}
	return 0
}

// SetSchedule sets the run-sched-var ICV consulted by schedule(runtime)
// loops (omp_set_schedule).
func SetSchedule(kind SchedKind, chunk int) {
	kmp.UpdateICV(func(v *kmp.ICV) { v.RunSched = Sched{Kind: kind, Chunk: int64(chunk)} })
}

// GetSchedule returns the run-sched-var ICV (omp_get_schedule).
func GetSchedule() (SchedKind, int) {
	s := kmp.GetICV().RunSched
	return s.Kind, int(s.Chunk)
}

// SetDynamic sets dyn-var (omp_set_dynamic). The value is stored and
// GetDynamic returns it, but the runtime never reads it: a team gets the
// threads the region asked for, capped only by thread-limit-var and
// max-active-levels-var, never fewer because dyn-var is true. A runtime
// that ran small regions serially on its own judgement would conform to
// OpenMP only while dyn-var is true.
func SetDynamic(on bool) { kmp.UpdateICV(func(v *kmp.ICV) { v.Dynamic = on }) }

// GetDynamic returns dyn-var (omp_get_dynamic): the last value set, which
// changes nothing the runtime does.
func GetDynamic() bool { return kmp.GetICV().Dynamic }

// SetMaxActiveLevels sets max-active-levels-var, the number of nested
// parallel regions that may be active — more than one thread — at once
// (omp_set_max_active_levels). 1, the default, serialises nested regions;
// 0 serialises every region. Negative values are ignored, as the standard
// allows.
func SetMaxActiveLevels(n int) {
	if n < 0 {
		return
	}
	kmp.UpdateICV(func(v *kmp.ICV) { v.MaxActiveLevels = n })
}

// GetMaxActiveLevels returns max-active-levels-var
// (omp_get_max_active_levels).
func GetMaxActiveLevels() int { return kmp.GetICV().MaxActiveLevels }

// GetActiveLevel returns the number of enclosing active parallel regions —
// regions executing with more than one thread (omp_get_active_level); 0
// outside any region.
func GetActiveLevel() int {
	if t := kmp.Current(); t != nil {
		return t.ActiveLevel
	}
	return 0
}

// GetThreadLimit returns thread-limit-var, 0 meaning unlimited
// (omp_get_thread_limit).
func GetThreadLimit() int { return kmp.GetICV().ThreadLimit }

// GetCancellation returns cancel-var: whether the cancel directive may
// activate cancellation (omp_get_cancellation, the OMP_CANCELLATION
// environment variable). Regions launched through ParallelErr or bound to a
// context via WithContext are cancellable regardless.
func GetCancellation() bool { return kmp.GetICV().Cancellation }

// SetCancellation sets cancel-var programmatically. An extension: standard
// OpenMP exposes cancel-var only through the environment, but a library API
// has no reason to force a re-exec to flip it.
func SetCancellation(on bool) { kmp.UpdateICV(func(v *kmp.ICV) { v.Cancellation = on }) }

// TrimTeams releases every idle cached team: worker goroutines exit and the
// team structures become garbage. The runtime keeps finished teams warm
// (goroutines parked, structures pooled) so the next Parallel forks without
// allocating; a server that has gone quiet can call TrimTeams to hand that
// memory back. Teams serving in-flight regions are untouched, and the next
// region simply rebuilds from cold. An extension — libomp has no equivalent
// (its kmp_set_defaults knob is close in spirit), but a long-lived Go
// process benefits from an explicit drain.
func TrimTeams() { kmp.TrimTeams() }
