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
	// SchedAuto lets the runtime pick. This implementation seeds every
	// thread with its static block and lets dry threads steal half-ranges
	// — static's locality with dynamic's rebalancing. (Before the stealing
	// engine it was an alias of SchedStatic, as libomp on CPU targets.)
	SchedAuto SchedKind = 38
	// SchedTrapezoidal is libomp's trapezoid self-scheduling: chunk sizes
	// decrease linearly from trip/(2n) towards the minimum chunk.
	SchedTrapezoidal SchedKind = 39
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
	case SchedTrapezoidal:
		return "trapezoidal"
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
	case "trapezoidal":
		kind = SchedTrapezoidal
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
// nextChunk(remaining, issued) — how many iterations the next chunk should
// carry, given the remaining count and the number of chunks the caller has
// already issued. dynamic is a constant, guided a fraction of the remainder,
// trapezoidal a linear taper. The same policy object drives both
// configurations of the dispatch engine: a shared range feeds it the team's
// remainder, a per-thread range the thread's own.
type schedPolicy struct {
	fixed int64 // fixed chunk size; 0 selects a shrinking policy
	min   int64 // smallest chunk a shrinking policy may issue
	div   int64 // guided: chunk = remaining/div (0 when not guided)
	first int64 // trapezoidal: size of chunk 0
	delta int64 // trapezoidal: per-chunk decrement
}

func (p *schedPolicy) nextChunk(remaining, issued int64) int64 {
	var size int64
	switch {
	case p.fixed > 0:
		size = p.fixed
	case p.div > 0:
		size = remaining / p.div
	default:
		size = p.first - issued*p.delta
	}
	if size < p.min {
		size = p.min
	}
	if size < 1 {
		size = 1
	}
	if size > remaining {
		size = remaining
	}
	return size
}

// policyFor builds the chunk policy for one loop instance. stealing selects
// the per-thread-range calibration: guided shrinks against the thread's
// local remainder with divisor 2 (which reproduces libomp's trip/(2n) first
// chunk on a static-seeded block), while on a shared range it shrinks
// against the team's remainder with divisor 2·nth. auto on a shared range
// degenerates to a fixed block-sized chunk.
func policyFor(sched Sched, trip, nth int64, stealing bool) schedPolicy {
	if nth < 1 {
		nth = 1
	}
	switch sched.Kind {
	case SchedGuidedChunked:
		if stealing {
			return schedPolicy{min: sched.effectiveChunk(), div: 2}
		}
		return schedPolicy{min: sched.effectiveChunk(), div: 2 * nth}
	case SchedTrapezoidal:
		minChunk := sched.effectiveChunk()
		first := trip / (2 * nth)
		if first < minChunk {
			first = minChunk
		}
		// Linear taper: with N = number of chunks ≈ 2·trip/(first+min),
		// the decrement per chunk is (first-min)/N.
		nChunks := (2*trip)/(first+minChunk) + 1
		delta := (first - minChunk) / nChunks
		if !stealing {
			// A shared range is popped by the whole team, but each thread
			// counts only its own chunks: one of them stands for nth.
			delta *= nth
		}
		return schedPolicy{min: minChunk, first: first, delta: delta}
	case SchedAuto:
		if stealing {
			// auto under stealing: halve the local remainder, floor 1 —
			// big cache-friendly chunks early, fine-grained tail for
			// thieves to rebalance.
			return schedPolicy{min: 1, div: 2}
		}
		chunk := sched.Chunk
		if chunk <= 0 {
			chunk = max((trip+nth-1)/nth, 1)
		}
		return schedPolicy{fixed: chunk}
	default: // SchedDynamicChunked, and the static kinds, which never pop
		return schedPolicy{fixed: sched.effectiveChunk()}
	}
}
