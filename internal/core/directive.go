package core

import (
	"fmt"
	"iter"
)

// DirKind enumerates directives. Each kind corresponds to one AST node tag
// in the paper's modified compiler ("each OpenMP directive is provided with
// an AST node tag").
type DirKind int

const (
	DirInvalid DirKind = iota
	// DirParallel is `parallel`: fork a team over the following block.
	DirParallel
	// DirFor is `for`: workshare the following for statement.
	DirFor
	// DirParallelFor is the fused `parallel for`.
	DirParallelFor
	// DirSections / DirSection distribute marked blocks across the team.
	DirSections
	DirSection
	// DirSingle runs the following block on one thread.
	DirSingle
	// DirMaster runs the following block on thread 0 only.
	DirMaster
	// DirCritical serialises the following block under a (named) lock.
	DirCritical
	// DirBarrier is a standalone team barrier.
	DirBarrier
	// DirAtomic makes the following update statement atomic.
	DirAtomic
	// DirThreadPrivate gives the named package-level variables one
	// instance per thread.
	DirThreadPrivate
	// DirTask defers the following block as an explicit task.
	DirTask
	// DirTaskwait waits for the current task's child tasks.
	DirTaskwait
	// DirTaskgroup waits for all descendant tasks of the following block.
	DirTaskgroup
	// DirTaskloop chunks the following for statement into explicit tasks.
	DirTaskloop
	// DirCancel requests cancellation of the innermost enclosing construct
	// of the kind named by Clauses.Cancel.
	DirCancel
	// DirCancellationPoint checks for pending cancellation of the kind
	// named by Clauses.Cancel.
	DirCancellationPoint
	// DirOrdered runs the following block in sequential iteration order
	// inside a worksharing loop carrying the ordered clause.
	DirOrdered
	// DirTaskyield is the standalone taskyield directive: a task
	// scheduling point at which the thread may run other ready tasks.
	DirTaskyield
	// DirTile is the OpenMP 5.1 tile loop-transformation directive: the
	// following k-deep canonical loop nest (k = arity of the sizes clause)
	// is strip-mined and interchanged into a 2k-deep nest of tile-grid
	// loops over point loops, with fringe guards for non-divisible trip
	// counts. Unlike every other directive it lowers to restructured source
	// loops, not runtime calls.
	DirTile
	// DirUnroll is the OpenMP 5.1 unroll loop-transformation directive:
	// full expansion of a constant-trip loop, or partial unrolling by a
	// factor with a scalar remainder loop. Bare `unroll` picks
	// heuristically (see transform.go).
	DirUnroll
)

// String returns the OpenMP surface spelling.
func (k DirKind) String() string {
	switch k {
	case DirParallel:
		return "parallel"
	case DirFor:
		return "for"
	case DirParallelFor:
		return "parallel for"
	case DirSections:
		return "sections"
	case DirSection:
		return "section"
	case DirSingle:
		return "single"
	case DirMaster:
		return "master"
	case DirCritical:
		return "critical"
	case DirBarrier:
		return "barrier"
	case DirAtomic:
		return "atomic"
	case DirThreadPrivate:
		return "threadprivate"
	case DirTask:
		return "task"
	case DirTaskwait:
		return "taskwait"
	case DirTaskgroup:
		return "taskgroup"
	case DirTaskloop:
		return "taskloop"
	case DirCancel:
		return "cancel"
	case DirCancellationPoint:
		return "cancellation point"
	case DirOrdered:
		return "ordered"
	case DirTaskyield:
		return "taskyield"
	case DirTile:
		return "tile"
	case DirUnroll:
		return "unroll"
	}
	return fmt.Sprintf("DirKind(%d)", int(k))
}

// CancelEnum is the construct-kind argument of the cancel and
// cancellation point directives. This implementation lowers parallel, for
// and taskgroup; cancel sections is rejected at parse time like the other
// unlowered clause combinations.
type CancelEnum uint8

const (
	CancelNone CancelEnum = iota
	CancelParallel
	CancelFor
	CancelTaskgroup
)

// String returns the directive-argument spelling.
func (c CancelEnum) String() string {
	switch c {
	case CancelParallel:
		return "parallel"
	case CancelFor:
		return "for"
	case CancelTaskgroup:
		return "taskgroup"
	}
	return "none"
}

// RuntimeName returns the omp package constant that codegen references.
func (c CancelEnum) RuntimeName() string {
	switch c {
	case CancelParallel:
		return "omp.CancelParallel"
	case CancelFor:
		return "omp.CancelFor"
	case CancelTaskgroup:
		return "omp.CancelTaskgroup"
	}
	return ""
}

// SchedEnum is the schedule kind of the schedule clause; SchedNone means no
// schedule clause.
type SchedEnum uint8

const (
	SchedNone SchedEnum = iota
	SchedStatic
	SchedDynamic
	SchedGuided
	SchedRuntime
	SchedAuto
)

// String returns the clause spelling.
func (s SchedEnum) String() string {
	switch s {
	case SchedStatic:
		return "static"
	case SchedDynamic:
		return "dynamic"
	case SchedGuided:
		return "guided"
	case SchedRuntime:
		return "runtime"
	case SchedAuto:
		return "auto"
	}
	return "none"
}

// SchedModEnum is the monotonic/nonmonotonic schedule modifier
// (nonmonotonic conflicts with the ordered clause). SchedModNone
// means no modifier was written, which for dynamic-family kinds defaults to
// nonmonotonic (work-stealing) execution per OpenMP 5.0.
type SchedModEnum uint8

const (
	SchedModNone SchedModEnum = iota
	SchedModMonotonic
	SchedModNonmonotonic
)

// String returns the modifier's clause spelling ("" when absent).
func (m SchedModEnum) String() string {
	switch m {
	case SchedModMonotonic:
		return "monotonic"
	case SchedModNonmonotonic:
		return "nonmonotonic"
	}
	return ""
}

// RuntimeName returns the omp package constant that codegen references.
func (m SchedModEnum) RuntimeName() string {
	switch m {
	case SchedModMonotonic:
		return "omp.Monotonic"
	case SchedModNonmonotonic:
		return "omp.Nonmonotonic"
	}
	return ""
}

// DependMode is the dependence type of one depend clause item. The numeric
// values match the runtime's kmp.DepMode so codegen and the dependence
// engine agree by construction.
type DependMode uint8

const (
	DependNone DependMode = iota
	DependIn
	DependOut
	DependInOut
)

// String returns the modifier spelling inside the depend clause.
func (m DependMode) String() string {
	switch m {
	case DependIn:
		return "in"
	case DependOut:
		return "out"
	case DependInOut:
		return "inout"
	}
	return "none"
}

// RuntimeName returns the omp package option constructor codegen emits.
func (m DependMode) RuntimeName() string {
	switch m {
	case DependIn:
		return "omp.DependIn"
	case DependOut:
		return "omp.DependOut"
	case DependInOut:
		return "omp.DependInOut"
	}
	return ""
}

// DependClause is one depend(mode: var,…) clause.
type DependClause struct {
	Mode DependMode
	Vars []string
}

// UnrollEnum is the unroll directive's expansion clause: full and partial
// are mutually exclusive per OpenMP 5.2 §9.5. UnrollNone on an unroll
// directive means neither clause was written — the implementation chooses
// the expansion heuristically.
type UnrollEnum uint8

const (
	UnrollNone UnrollEnum = iota
	UnrollPartial
	UnrollFull
)

// String returns the clause spelling ("" when absent).
func (u UnrollEnum) String() string {
	switch u {
	case UnrollPartial:
		return "partial"
	case UnrollFull:
		return "full"
	}
	return ""
}

// DefaultKind is the default clause's argument.
type DefaultKind uint8

const (
	DefaultUnset DefaultKind = iota
	DefaultShared
	DefaultNone
)

// ReduceOp enumerates reduction-clause operators; the order is shared with
// the runtime's omp.ReduceOp so codegen can emit the constant by name.
type ReduceOp int

const (
	RedSum ReduceOp = iota
	RedProd
	RedMin
	RedMax
	RedBitAnd
	RedBitOr
	RedBitXor
	RedLogicalAnd
	RedLogicalOr
)

// String returns the clause operator spelling.
func (op ReduceOp) String() string {
	return [...]string{"+", "*", "min", "max", "&", "|", "^", "&&", "||"}[op]
}

// RuntimeName returns the omp package constant that codegen references.
func (op ReduceOp) RuntimeName() string {
	return [...]string{
		"omp.ReduceSum", "omp.ReduceProd", "omp.ReduceMin", "omp.ReduceMax",
		"omp.ReduceBitAnd", "omp.ReduceBitOr", "omp.ReduceBitXor",
		"omp.ReduceLogicalAnd", "omp.ReduceLogicalOr",
	}[op]
}

// ReductionClause is one reduction(op:var,…) clause.
type ReductionClause struct {
	Op   ReduceOp
	Vars []string
}

// VarClause names the data-sharing clause that lists a variable.
type VarClause uint8

const (
	VarPrivate VarClause = iota
	VarFirstPrivate
	VarLastPrivate
	VarShared
)

// String returns the clause spelling.
func (k VarClause) String() string {
	return [...]string{"private", "firstprivate", "lastprivate", "shared"}[k]
}

// ListedVar is one variable of a private, firstprivate, lastprivate or
// shared clause.
type ListedVar struct {
	Name   string
	Clause VarClause
}

// Clauses carries every clause a directive may hold. One structure serves
// all directives, as in the paper ("all clauses are stored in a single data
// structure"); validation restricts which clauses are allowed per kind.
// The clauses of the loop and region directives sit in it directly. The
// ones no loop directive carries sit in Rare, which the parser allocates
// only for a pragma that writes one of them: a parsed directive, one per
// pragma, stays at 120 bytes (TestDirectiveFootprint).
type Clauses struct {
	// Vars are the variables of the private, firstprivate, lastprivate and
	// shared clauses in the order written, each tagged with its clause.
	Vars       []ListedVar
	Reductions []ReductionClause

	NumThreads string // raw host expression, empty = absent
	If         string // raw host expression, empty = absent

	Chunk       int64 // 0 = no chunk specified (chunk must be > 0 per spec)
	Collapse    int   // 0 = absent; at most MaxCollapse
	Sched       SchedEnum
	SchedMod    SchedModEnum // monotonic/nonmonotonic schedule modifier
	HasSchedule bool
	Default     DefaultKind
	NoWait      bool
	Ordered     bool

	// Rare holds every other clause; nil when the directive writes none.
	Rare *RareClauses
}

// RareClauses are the clauses no loop directive carries: tasking, loop
// transformation, threadprivate, copyprivate, the critical section's name
// and the cancellation kind.
type RareClauses struct {
	CopyPrivate       []string
	ThreadPrivateVars []string // threadprivate(…) list
	Name              string   // critical section name, empty = unnamed

	// Tasking clauses (task, taskloop).
	Final     string // raw host expression, empty = absent
	Priority  string // raw host expression, empty = absent
	Grainsize int64  // 0 = absent; mutually exclusive with NumTasks
	NumTasks  int64  // 0 = absent; mutually exclusive with Grainsize
	Untied    bool
	NoGroup   bool
	Mergeable bool
	// Depends are the depend(in/out/inout: …) clauses of a task directive;
	// each listed variable becomes a dependence address (&var) at codegen.
	Depends []DependClause

	// Cancel is the construct-kind argument of cancel/cancellation point
	// (CancelNone on every other directive).
	Cancel CancelEnum

	// Loop-transformation clauses (tile, unroll).
	Sizes        []int64    // tile sizes(t1,…,tk); arity = nest depth
	Unroll       UnrollEnum // unroll expansion selector
	UnrollFactor int64      // partial(n) factor; 0 = implementation choice
}

// noRare is what rare reads for a directive without rare clauses.
var noRare RareClauses

// rare returns the directive's rare clauses, all zero when it writes none.
// The result is only to be read.
func (c *Clauses) rare() *RareClauses {
	if c.Rare == nil {
		return &noRare
	}
	return c.Rare
}

// setRare returns the rare clauses to write into, allocating them first.
func (c *Clauses) setRare() *RareClauses {
	if c.Rare == nil {
		c.Rare = new(RareClauses)
	}
	return c.Rare
}

// Names yields the variables that clause k lists, in the order written.
func (c *Clauses) Names(k VarClause) iter.Seq[string] {
	return func(yield func(string) bool) {
		for _, v := range c.Vars {
			if v.Clause == k && !yield(v.Name) {
				return
			}
		}
	}
}

// Count returns how many variables clause k lists.
func (c *Clauses) Count(k VarClause) int {
	n := 0
	for _, v := range c.Vars {
		if v.Clause == k {
			n++
		}
	}
	return n
}

// Directive is a parsed pragma.
type Directive struct {
	Kind    DirKind
	Clauses Clauses
}
