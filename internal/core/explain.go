package core

import (
	"fmt"
	"strings"
)

// Directive explanation: the read-only half of the front end, backing
// `gompcc -explain`. Inspect surfaces every pragma of a file without
// rewriting anything; Explain turns a parsed directive into a one-line
// account of the lowering or transformation the preprocessor will apply —
// the same decisions gen.go and transform.go make, described instead of
// performed.

// PragmaInfo is one recognized pragma of a source file.
type PragmaInfo struct {
	Line int
	Dir  *Directive
}

// Inspect tokenises and parses every pragma of src in source order without
// rewriting the file. Directive parse or validation errors are returned
// with position information, exactly as Preprocess would report them.
func Inspect(src []byte, opts Options) ([]PragmaInfo, error) {
	opts.defaults()
	u, err := analyze(src, opts)
	if err != nil {
		return nil, err
	}
	out := make([]PragmaInfo, 0, len(u.pragmas))
	for _, p := range u.pragmas {
		out = append(out, PragmaInfo{Line: p.line, Dir: p.pragma})
	}
	return out, nil
}

// Explain describes the lowering or transformation the preprocessor
// applies to d, in one line.
func Explain(d *Directive) string {
	c := &d.Clauses
	var notes []string
	base := ""
	switch d.Kind {
	case DirParallel:
		base = "fork a hot goroutine team over the outlined block (omp.Parallel)"
	case DirParallelFor:
		base = "fork a team and workshare the canonical loop's iteration space across it (omp.Parallel + omp.ForRange)"
	case DirFor:
		base = "workshare the canonical loop's iteration space across the enclosing team (omp.ForRange)"
	case DirSections:
		base = "distribute the section blocks across the team (omp.Sections)"
	case DirSection:
		base = "delimit one block of the enclosing sections construct"
	case DirSingle:
		base = "run the block on the first thread to arrive (omp.Single)"
	case DirMaster:
		base = "run the block on thread 0 only (omp.Masked)"
	case DirCritical:
		base = "serialise the block under a named lock (omp.Critical)"
	case DirBarrier:
		base = "full-team rendezvous (omp.Barrier)"
	case DirAtomic:
		base = "make the update statement atomic via the __omp_atomic critical section"
	case DirThreadPrivate:
		base = "give each listed package-level variable one instance per thread (omp.ThreadPrivate cell + accessor rewriting)"
	case DirTask:
		base = "defer the outlined block as an explicit task on the work-stealing deques (omp.Task)"
	case DirTaskwait:
		base = "wait for the current task's children (omp.Taskwait)"
	case DirTaskgroup:
		base = "run the block, then wait for all descendant tasks (omp.Taskgroup)"
	case DirTaskloop:
		base = "carve the canonical loop into explicit task chunks (omp.Taskloop)"
	case DirTaskyield:
		base = "task scheduling point: the thread may run other ready tasks (omp.Taskyield)"
	case DirCancel:
		base = fmt.Sprintf("activate %s cancellation and branch to the construct's end (omp.Cancel guard)", c.Cancel)
	case DirCancellationPoint:
		base = fmt.Sprintf("observe pending %s cancellation and branch out if set (omp.CancellationPoint guard)", c.Cancel)
	case DirOrdered:
		base = "sequence the block into iteration order against the loop's ordered ticket chain (omp.Ordered)"
	case DirTile:
		k := len(c.Sizes)
		strs := make([]string, k)
		for i, s := range c.Sizes {
			strs[i] = fmt.Sprintf("%d", s)
		}
		return fmt.Sprintf(
			"transform: strip-mine the %d-deep loop nest into a %d-deep nest — tile-grid loops stepping by %s over fringe-guarded point loops; a worksharing directive stacked above distributes the grid",
			k, 2*k, strings.Join(strs, "×"))
	case DirUnroll:
		switch c.Unroll {
		case UnrollFull:
			return "transform: fully expand the constant-trip loop into straight-line blocks (requires literal bounds)"
		case UnrollPartial:
			if c.UnrollFactor > 0 {
				return fmt.Sprintf("transform: unroll the loop body %d× inside a factor-stepped main loop, plus a scalar remainder loop for trip%%%d iterations", c.UnrollFactor, c.UnrollFactor)
			}
			return fmt.Sprintf("transform: partially unroll by the implementation factor (%d), plus a scalar remainder loop", defaultUnrollFactor)
		default:
			return fmt.Sprintf("transform: unroll heuristically — full expansion for constant trips ≤ %d, otherwise partial by %d with a scalar remainder loop", fullUnrollTrip, defaultUnrollFactor)
		}
	default:
		return "no lowering registered"
	}

	if c.NumThreads != "" {
		notes = append(notes, fmt.Sprintf("team size from num_threads(%s)", c.NumThreads))
	}
	if c.If != "" {
		notes = append(notes, fmt.Sprintf("serialised unless if(%s) holds", c.If))
	}
	if c.HasSchedule {
		mod := ""
		if c.SchedMod != SchedModNone {
			mod = c.SchedMod.String() + ":"
		}
		sched := fmt.Sprintf("%s%s", mod, c.Sched)
		if c.Chunk > 0 {
			sched += fmt.Sprintf(",%d", c.Chunk)
		}
		notes = append(notes, fmt.Sprintf("schedule(%s) chunking", sched))
	}
	if c.Collapse > 1 {
		notes = append(notes, fmt.Sprintf("collapse(%d): %d-deep rectangular nest flattened to one iteration space", c.Collapse, c.Collapse))
	}
	if c.Ordered {
		notes = append(notes, "ordered ticket chain enabled (forces monotonic dispatch)")
	}
	if n := len(c.Private) + len(c.FirstPrivate); n > 0 {
		notes = append(notes, fmt.Sprintf("%d private/firstprivate shadow copies", n))
	}
	if len(c.LastPrivate) > 0 {
		notes = append(notes, "lastprivate write-back from the sequentially-last iteration")
	}
	for _, r := range c.Reductions {
		notes = append(notes, fmt.Sprintf("reduction(%s) over %s via per-thread partials", r.Op, strings.Join(r.Vars, ",")))
	}
	if len(c.Depends) > 0 {
		var items []string
		for _, dc := range c.Depends {
			items = append(items, fmt.Sprintf("%s:%s", dc.Mode, strings.Join(dc.Vars, ",")))
		}
		notes = append(notes, fmt.Sprintf("withheld until dependences resolve (%s)", strings.Join(items, "; ")))
	}
	if c.Priority != "" {
		notes = append(notes, fmt.Sprintf("released through the team priority queue at priority(%s)", c.Priority))
	}
	if c.Grainsize > 0 {
		notes = append(notes, fmt.Sprintf("grainsize(%d) iterations per task", c.Grainsize))
	}
	if c.NumTasks > 0 {
		notes = append(notes, fmt.Sprintf("split into num_tasks(%d) tasks", c.NumTasks))
	}
	if c.Final != "" {
		notes = append(notes, fmt.Sprintf("descendants run undeferred once final(%s) holds", c.Final))
	}
	if c.NoWait {
		notes = append(notes, "nowait: implicit barrier elided")
	}
	if c.NoGroup {
		notes = append(notes, "nogroup: implicit taskgroup elided")
	}
	if len(notes) > 0 {
		return base + "; " + strings.Join(notes, "; ")
	}
	return base
}
