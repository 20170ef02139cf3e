package kmp

import (
	"fmt"
	"strconv"
	"strings"
)

// SchedKind identifies a worksharing-loop schedule. The numeric values are
// libomp's sched_type enumeration (kmp.h), which the paper's preprocessor
// passes to __kmpc_dispatch_init, so lowered call traces line up with
// clang -fopenmp.
type SchedKind int32

const (
	// SchedStaticChunked is schedule(static, chunk): chunks of the given
	// size are handed out round-robin (thread t gets chunks t, t+n, ...).
	SchedStaticChunked SchedKind = 33
	// SchedStatic is schedule(static) with no chunk: one contiguous,
	// near-equal block per thread.
	SchedStatic SchedKind = 34
	// SchedDynamicChunked is schedule(dynamic[, chunk]): threads claim the
	// next chunk as they finish — from their own static-seeded range by
	// default, stealing when it runs dry, or from one range the team shares
	// under the monotonic: modifier.
	SchedDynamicChunked SchedKind = 35
	// SchedGuidedChunked is schedule(guided[, chunk]): dynamic with
	// exponentially shrinking chunks, never below the requested chunk.
	SchedGuidedChunked SchedKind = 36
	// SchedRuntime defers the choice to the run-sched-var ICV
	// (OMP_SCHEDULE).
	SchedRuntime SchedKind = 37
	// SchedAuto lets the runtime pick. DispatchInit runs it as
	// schedule(guided, 1): on per-thread ranges every thread starts on its
	// static block, halving what it has left per pop, and dry threads steal
	// — static's locality with dynamic's rebalancing.
	SchedAuto SchedKind = 38
)

// String returns the OpenMP surface-syntax name of the schedule kind.
func (s SchedKind) String() string {
	switch s {
	case SchedStaticChunked, SchedStatic:
		return "static"
	case SchedDynamicChunked:
		return "dynamic"
	case SchedGuidedChunked:
		return "guided"
	case SchedRuntime:
		return "runtime"
	case SchedAuto:
		return "auto"
	default:
		return fmt.Sprintf("SchedKind(%d)", int32(s))
	}
}

// SchedModifier is the OpenMP 4.5/5.0 schedule-clause modifier. It decides
// how a dynamic-family loop's iterations are laid out (dispatch.go):
// nonmonotonic (the OpenMP 5.0 default for dynamic and guided) licenses
// out-of-order chunk delivery and therefore per-thread ranges with work
// stealing, while monotonic requires each thread to see non-decreasing
// iteration numbers and puts the loop on one range the team shares.
type SchedModifier int32

const (
	// SchedModNone is an absent modifier: dynamic-family kinds default to
	// nonmonotonic execution, as OpenMP 5.0 specifies.
	SchedModNone SchedModifier = iota
	// SchedModMonotonic forces shared-range dispatch (chunks issued in
	// increasing iteration order). Implied by the ordered clause.
	SchedModMonotonic
	// SchedModNonmonotonic explicitly requests stealing execution.
	SchedModNonmonotonic
)

// String returns the modifier's clause spelling ("" for none).
func (m SchedModifier) String() string {
	switch m {
	case SchedModMonotonic:
		return "monotonic"
	case SchedModNonmonotonic:
		return "nonmonotonic"
	}
	return ""
}

// Sched pairs a schedule kind with its chunk size and modifier. Chunk 0
// means "not specified", matching the paper's packed-clause encoding where a
// zero chunk field denotes an absent chunk (Section III-A2).
type Sched struct {
	Kind  SchedKind
	Chunk int64
	// Mod is the monotonic/nonmonotonic schedule modifier.
	Mod SchedModifier
	// Ordered marks the loop as carrying an ordered clause. An ordered
	// loop dispatches monotonically regardless of Mod — chunk tickets must
	// reproduce iteration order for Thread.Ordered's sequencing.
	Ordered bool
}

// String renders the schedule in OMP_SCHEDULE surface syntax, including the
// modifier prefix: "nonmonotonic:dynamic,4". ParseSchedule(s.String())
// round-trips.
func (s Sched) String() string {
	var b strings.Builder
	if s.Mod != SchedModNone {
		b.WriteString(s.Mod.String())
		b.WriteByte(':')
	}
	b.WriteString(s.Kind.String())
	if s.Chunk > 0 {
		fmt.Fprintf(&b, ",%d", s.Chunk)
	}
	return b.String()
}

// ParseSchedule parses an OMP_SCHEDULE-style string ("dynamic,4", "guided",
// "static , 16", "nonmonotonic:dynamic,8") into a Sched. It is used both for
// the run-sched-var ICV and by the directive parser's schedule clause.
func ParseSchedule(s string) (Sched, error) {
	var mod SchedModifier
	if pre, rest, hasMod := strings.Cut(s, ":"); hasMod {
		switch strings.ToLower(strings.TrimSpace(pre)) {
		case "monotonic":
			mod = SchedModMonotonic
		case "nonmonotonic":
			mod = SchedModNonmonotonic
		default:
			return Sched{}, fmt.Errorf("kmp: unknown schedule modifier %q", strings.TrimSpace(pre))
		}
		s = rest
	}
	name, chunkStr, hasChunk := strings.Cut(s, ",")
	name = strings.ToLower(strings.TrimSpace(name))
	var kind SchedKind
	switch name {
	case "static":
		kind = SchedStatic
	case "dynamic":
		kind = SchedDynamicChunked
	case "guided":
		kind = SchedGuidedChunked
	case "auto":
		kind = SchedAuto
	case "runtime":
		kind = SchedRuntime
	default:
		return Sched{}, fmt.Errorf("kmp: unknown schedule kind %q", name)
	}
	if mod == SchedModNonmonotonic && kind == SchedStatic {
		return Sched{}, fmt.Errorf("kmp: the nonmonotonic modifier requires a dynamic-family schedule kind")
	}
	if mod != SchedModNone && kind == SchedRuntime {
		return Sched{}, fmt.Errorf("kmp: schedule modifiers cannot be applied to runtime (set them in OMP_SCHEDULE instead)")
	}
	sched := Sched{Kind: kind, Mod: mod}
	if hasChunk {
		chunk, err := strconv.ParseInt(strings.TrimSpace(chunkStr), 10, 64)
		if err != nil {
			return Sched{}, fmt.Errorf("kmp: bad schedule chunk %q: %v", chunkStr, err)
		}
		if chunk <= 0 {
			return Sched{}, fmt.Errorf("kmp: schedule chunk must be positive, got %d", chunk)
		}
		sched.Chunk = chunk
		if kind == SchedStatic {
			sched.Kind = SchedStaticChunked
		}
	}
	return sched, nil
}

// effectiveChunk returns the chunk size to use for a dynamic-family
// schedule: the OpenMP default is 1 when unspecified.
func (s Sched) effectiveChunk() int64 {
	if s.Chunk <= 0 {
		return 1
	}
	return s.Chunk
}

// schedPolicy reduces every dynamic-family schedule to one pure function:
// nextChunk(remaining) — how many iterations the next chunk should carry,
// given how many the popped range has left. dynamic is a constant, guided a
// fraction of the remainder. The same policy object drives both
// configurations of the dispatch engine: a shared range feeds it the team's
// remainder, a per-thread range the thread's own.
type schedPolicy struct {
	fixed int64 // fixed chunk size; 0 selects guided
	min   int64 // guided: the smallest chunk it may issue
	div   int64 // guided: chunk = remaining/div
}

func (p *schedPolicy) nextChunk(remaining int64) int64 {
	size := p.fixed
	if size == 0 {
		size = max(remaining/p.div, p.min)
	}
	return min(size, remaining)
}

// policyFor builds the chunk policy for one loop instance in a team of nth.
// stealing selects the per-thread-range calibration: guided shrinks against
// the thread's local remainder with divisor 2 (which reproduces libomp's
// trip/(2n) first chunk on a static-seeded block), while on a shared range
// it shrinks against the team's remainder with divisor 2·nth.
func policyFor(sched Sched, nth int64, stealing bool) schedPolicy {
	if sched.Kind != SchedGuidedChunked {
		// dynamic, and the static kinds, which never pop
		return schedPolicy{fixed: sched.effectiveChunk()}
	}
	if stealing {
		nth = 1
	}
	return schedPolicy{min: sched.effectiveChunk(), div: 2 * nth}
}
