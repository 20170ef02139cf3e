package core

import (
	"fmt"
	"strconv"
	"strings"
)

// clauseSet names clause groups for the per-directive compatibility table.
type clauseSet uint32

const (
	allowPrivate clauseSet = 1 << iota
	allowFirstPrivate
	allowLastPrivate
	allowShared
	allowCopyPrivate
	allowReduction
	allowSchedule
	allowDefault
	allowNoWait
	allowCollapse
	allowOrdered
	allowNumThreads
	allowIf
	allowFinal
	allowUntied
	allowGrainsize
	allowNumTasks
	allowNoGroup
	allowDepend
	allowPriority
	allowMergeable
	allowSizes
	allowUnrollSpec
)

// allowedClauses is the directive/clause compatibility matrix, the OpenMP
// 5.2 subset covered by loop directives. The parser builds a single Clauses
// value for any directive; this table is what makes
// `//omp barrier nowait` an error rather than silently ignored.
var allowedClauses = map[DirKind]clauseSet{
	DirParallel: allowPrivate | allowFirstPrivate | allowShared |
		allowReduction | allowDefault | allowNumThreads | allowIf,
	DirFor: allowPrivate | allowFirstPrivate | allowLastPrivate |
		allowReduction | allowSchedule | allowNoWait | allowCollapse | allowOrdered,
	DirParallelFor: allowPrivate | allowFirstPrivate | allowLastPrivate |
		allowShared | allowReduction | allowSchedule | allowDefault |
		allowCollapse | allowOrdered | allowNumThreads | allowIf,
	// OpenMP also allows lastprivate/reduction on sections; this
	// implementation does not lower them there, so they are rejected
	// rather than silently ignored (README "Known limits").
	DirSections:      allowPrivate | allowFirstPrivate | allowNoWait,
	DirSection:       0,
	DirSingle:        allowPrivate | allowFirstPrivate | allowCopyPrivate | allowNoWait,
	DirMaster:        0,
	DirCritical:      0,
	DirBarrier:       0,
	DirAtomic:        0,
	DirThreadPrivate: 0,
	DirTask: allowPrivate | allowFirstPrivate | allowShared | allowDefault |
		allowIf | allowFinal | allowUntied | allowDepend | allowPriority |
		allowMergeable,
	DirTaskwait:  0,
	DirTaskgroup: 0,
	DirTaskyield: 0,
	// OpenMP also allows collapse/reduction/lastprivate on taskloop; this
	// implementation does not lower them there, so they are rejected
	// rather than silently ignored. depend is not permitted on taskloop by
	// the standard itself (OpenMP 5.2 §12.6).
	DirTaskloop: allowPrivate | allowFirstPrivate | allowShared | allowDefault |
		allowIf | allowFinal | allowUntied | allowGrainsize | allowNumTasks |
		allowNoGroup | allowPriority | allowMergeable,
	// cancel takes the if clause (cancellation activates only when the
	// expression holds); cancellation point takes none, per OpenMP 5.2
	// §11.5.
	DirCancel:            allowIf,
	DirCancellationPoint: 0,
	// The block form of ordered takes no clauses in this implementation
	// (the doacross depend/threads/simd arguments are not lowered).
	DirOrdered: 0,
	// Loop-transformation directives take only their own clauses: tile
	// requires sizes, unroll takes an optional full/partial selector
	// (OpenMP 5.2 §9.4–9.5). Data-environment clauses belong on the
	// worksharing directive stacked above the transformation.
	DirTile:   allowSizes,
	DirUnroll: allowUnrollSpec,
}

// Loop-transformation limits.
const (
	// MaxTileDepth caps the sizes-clause arity: tiling k loops generates a
	// 2k-deep nest, and a collapse clause stacked above must still be able
	// to name every generated grid loop within MaxCollapse.
	MaxTileDepth = MaxCollapse / 2
	// MaxUnrollFactor caps partial(n): unrolling duplicates the loop body
	// n times in the generated source, so the factor is a code-size lever,
	// not an iteration count.
	MaxUnrollFactor = 1024
)

// Validate checks directive/clause compatibility and clause-level
// constraints. ParseDirective calls it on every pragma; the preprocessor
// adds position information to any error it returns.
func Validate(d *Directive) error {
	allowed, ok := allowedClauses[d.Kind]
	if !ok {
		return fmt.Errorf("pragma: unknown directive kind %v", d.Kind)
	}
	c := &d.Clauses

	type check struct {
		present bool
		set     clauseSet
		name    string
	}
	for _, ch := range []check{
		{len(c.Private) > 0, allowPrivate, "private"},
		{len(c.FirstPrivate) > 0, allowFirstPrivate, "firstprivate"},
		{len(c.LastPrivate) > 0, allowLastPrivate, "lastprivate"},
		{len(c.Shared) > 0, allowShared, "shared"},
		{len(c.CopyPrivate) > 0, allowCopyPrivate, "copyprivate"},
		{len(c.Reductions) > 0, allowReduction, "reduction"},
		{c.HasSchedule, allowSchedule, "schedule"},
		{c.Default != DefaultUnset, allowDefault, "default"},
		{c.NoWait, allowNoWait, "nowait"},
		{c.Collapse > 0, allowCollapse, "collapse"},
		{c.Ordered, allowOrdered, "ordered"},
		{c.NumThreads != "", allowNumThreads, "num_threads"},
		{c.If != "", allowIf, "if"},
		{c.Final != "", allowFinal, "final"},
		{c.Untied, allowUntied, "untied"},
		{c.Grainsize > 0, allowGrainsize, "grainsize"},
		{c.NumTasks > 0, allowNumTasks, "num_tasks"},
		{c.NoGroup, allowNoGroup, "nogroup"},
		{len(c.Depends) > 0, allowDepend, "depend"},
		{c.Priority != "", allowPriority, "priority"},
		{c.Mergeable, allowMergeable, "mergeable"},
		{len(c.Sizes) > 0, allowSizes, "sizes"},
		{c.Unroll != UnrollNone, allowUnrollSpec, c.Unroll.String()},
	} {
		if ch.present && allowed&ch.set == 0 {
			return fmt.Errorf("pragma: clause %s is not permitted on the %s directive", ch.name, d.Kind)
		}
	}

	if c.HasSchedule && c.Chunk >= MaxChunk {
		return fmt.Errorf("pragma: chunk %d exceeds the encodable maximum %d", c.Chunk, MaxChunk-1)
	}
	if c.Collapse > MaxCollapse {
		return fmt.Errorf("pragma: collapse %d exceeds the encodable maximum %d", c.Collapse, MaxCollapse)
	}
	if c.Chunk > 0 && !c.HasSchedule {
		return fmt.Errorf("pragma: chunk without schedule clause")
	}
	if c.SchedMod != SchedModNone && !c.HasSchedule {
		return fmt.Errorf("pragma: schedule modifier %s without schedule clause", c.SchedMod)
	}
	// The nonmonotonic modifier licenses out-of-order (stealing) chunk
	// delivery, which both the ordered clause and static partitioning
	// exclude (OpenMP 5.2 §11.5.3). monotonic is universally valid: it
	// simply keeps the legacy shared-counter dispatch.
	if c.SchedMod == SchedModNonmonotonic {
		if c.Ordered {
			return fmt.Errorf("pragma: the nonmonotonic schedule modifier cannot be combined with the ordered clause")
		}
		if c.Sched == SchedStatic {
			return fmt.Errorf("pragma: the nonmonotonic schedule modifier requires a dynamic-family schedule kind")
		}
	}
	if c.SchedMod != SchedModNone && c.Sched == SchedRuntime {
		// Matches kmp.ParseSchedule: the modifier belongs to the deferred
		// schedule, so it is written in OMP_SCHEDULE, not on the clause.
		return fmt.Errorf("pragma: schedule modifiers cannot be applied to runtime (set them in OMP_SCHEDULE instead)")
	}
	if c.Grainsize > 0 && c.NumTasks > 0 {
		return fmt.Errorf("pragma: grainsize and num_tasks are mutually exclusive (OpenMP 5.2 §12.6)")
	}
	if c.Grainsize >= MaxTaskIter || c.NumTasks >= MaxTaskIter {
		return fmt.Errorf("pragma: task granularity exceeds the encodable maximum %d", int64(MaxTaskIter)-1)
	}

	// Depend items: a storage location may appear in at most one depend
	// clause item per task (OpenMP 5.2 §15.9.5 forbids conflicting
	// dependence types on one list item; merging identical ones would be
	// legal but is rejected too — a duplicate is a pragma typo).
	depSeen := map[string]DependMode{}
	for _, dc := range c.Depends {
		if dc.Mode < DependIn || dc.Mode > DependInOut {
			return fmt.Errorf("pragma: invalid dependence type %d in depend clause", dc.Mode)
		}
		if len(dc.Vars) == 0 {
			return fmt.Errorf("pragma: depend(%s:) requires a variable list", dc.Mode)
		}
		for _, v := range dc.Vars {
			if prev, dup := depSeen[v]; dup {
				return fmt.Errorf("pragma: variable %s appears in both depend(%s) and depend(%s)", v, prev, dc.Mode)
			}
			depSeen[v] = dc.Mode
		}
	}

	// A variable may appear in at most one data-sharing clause
	// (data-sharing attribute rules, OpenMP 5.2 §5.4).
	seen := map[string]string{}
	record := func(vars []string, clause string) error {
		for _, v := range vars {
			if prev, dup := seen[v]; dup {
				return fmt.Errorf("pragma: variable %s appears in both %s and %s clauses", v, prev, clause)
			}
			seen[v] = clause
		}
		return nil
	}
	for _, pair := range []struct {
		vars   []string
		clause string
	}{
		{c.Private, "private"},
		{c.FirstPrivate, "firstprivate"},
		{c.Shared, "shared"},
	} {
		if err := record(pair.vars, pair.clause); err != nil {
			return err
		}
	}
	// lastprivate may combine with firstprivate (OpenMP allows the pair)
	// but not with private/shared.
	for _, v := range c.LastPrivate {
		if prev, dup := seen[v]; dup && prev != "firstprivate" {
			return fmt.Errorf("pragma: variable %s appears in both %s and lastprivate clauses", v, prev)
		}
	}
	for _, r := range c.Reductions {
		if err := record(r.Vars, "reduction("+r.Op.String()+")"); err != nil {
			return err
		}
	}

	if d.Kind == DirThreadPrivate && len(c.ThreadPrivateVars) == 0 {
		return fmt.Errorf("pragma: threadprivate requires a variable list")
	}
	// Loop-transformation constraints: tile must know the nest depth (one
	// size per loop); unroll's factor travels with the partial selector.
	if d.Kind == DirTile && len(c.Sizes) == 0 {
		return fmt.Errorf("pragma: tile requires a sizes clause naming one tile size per loop of the nest")
	}
	if len(c.Sizes) > MaxTileDepth {
		return fmt.Errorf("pragma: tile depth %d exceeds the maximum %d (the generated %d-deep nest would not fit a collapse clause, whose limit is %d)",
			len(c.Sizes), MaxTileDepth, 2*len(c.Sizes), MaxCollapse)
	}
	for _, s := range c.Sizes {
		if s < 1 || s >= MaxTileSize {
			return fmt.Errorf("pragma: tile size %d outside [1, %d)", s, MaxTileSize)
		}
	}
	if c.UnrollFactor > 0 && c.Unroll != UnrollPartial {
		return fmt.Errorf("pragma: an unroll factor requires the partial clause")
	}
	if c.UnrollFactor > MaxUnrollFactor {
		return fmt.Errorf("pragma: unroll factor %d exceeds the maximum %d (the factor multiplies generated code size)", c.UnrollFactor, MaxUnrollFactor)
	}
	// The construct-kind argument travels in the Cancel field; it is
	// mandatory on the cancellation directives (the parser enforces the
	// spelling, this guards programmatic construction) and meaningless
	// anywhere else.
	switch d.Kind {
	case DirCancel, DirCancellationPoint:
		if c.Cancel == CancelNone {
			return fmt.Errorf("pragma: %s requires a construct kind (parallel, for, or taskgroup)", d.Kind)
		}
	default:
		if c.Cancel != CancelNone {
			return fmt.Errorf("pragma: construct kind %s is only valid on cancel directives", c.Cancel)
		}
	}
	return nil
}

// DistributeParallelFor splits the clause set of a fused parallel-for into
// the parallel part and the for part, per the OpenMP rules for combined
// constructs: data-sharing and team clauses go to parallel, loop clauses to
// for. Reductions ride on the loop (the loop-level lowering folds into the
// shared variable, which the region shares by default).
func DistributeParallelFor(d *Directive) (par, loop *Directive) {
	c := d.Clauses
	par = &Directive{Kind: DirParallel, Clauses: Clauses{
		Private:      c.Private,
		FirstPrivate: c.FirstPrivate,
		Shared:       c.Shared,
		Default:      c.Default,
		NumThreads:   c.NumThreads,
		If:           c.If,
	}}
	loop = &Directive{Kind: DirFor, Clauses: Clauses{
		LastPrivate: c.LastPrivate,
		Reductions:  c.Reductions,
		Sched:       c.Sched,
		Chunk:       c.Chunk,
		HasSchedule: c.HasSchedule,
		SchedMod:    c.SchedMod,
		Collapse:    c.Collapse,
		Ordered:     c.Ordered,
		// The fused construct has one rendezvous, not two: the inner
		// loop runs nowait and the parallel join is its closing barrier
		// (reduction combines and lastprivate stores still precede it).
		NoWait: true,
	}}
	return par, loop
}

// String renders a directive back to pragma surface syntax (diagnostics,
// golden tests).
func (d *Directive) String() string {
	var b strings.Builder
	b.WriteString(d.Kind.String())
	c := &d.Clauses
	if d.Kind == DirCritical && c.Name != "" {
		fmt.Fprintf(&b, "(%s)", c.Name)
	}
	if c.Cancel != CancelNone {
		fmt.Fprintf(&b, " %s", c.Cancel)
	}
	list := func(name string, vars []string) {
		if len(vars) > 0 {
			fmt.Fprintf(&b, " %s(%s)", name, strings.Join(vars, ","))
		}
	}
	list("private", c.Private)
	list("firstprivate", c.FirstPrivate)
	list("lastprivate", c.LastPrivate)
	list("shared", c.Shared)
	list("copyprivate", c.CopyPrivate)
	for _, r := range c.Reductions {
		fmt.Fprintf(&b, " reduction(%s:%s)", r.Op, strings.Join(r.Vars, ","))
	}
	for _, dc := range c.Depends {
		fmt.Fprintf(&b, " depend(%s:%s)", dc.Mode, strings.Join(dc.Vars, ","))
	}
	if c.HasSchedule {
		mod := ""
		if c.SchedMod != SchedModNone {
			mod = c.SchedMod.String() + ":"
		}
		if c.Chunk > 0 {
			fmt.Fprintf(&b, " schedule(%s%s,%d)", mod, c.Sched, c.Chunk)
		} else {
			fmt.Fprintf(&b, " schedule(%s%s)", mod, c.Sched)
		}
	}
	switch c.Default {
	case DefaultShared:
		b.WriteString(" default(shared)")
	case DefaultNone:
		b.WriteString(" default(none)")
	}
	if c.Collapse > 0 {
		fmt.Fprintf(&b, " collapse(%d)", c.Collapse)
	}
	if c.Ordered {
		b.WriteString(" ordered")
	}
	if c.NumThreads != "" {
		fmt.Fprintf(&b, " num_threads(%s)", c.NumThreads)
	}
	if c.If != "" {
		fmt.Fprintf(&b, " if(%s)", c.If)
	}
	if c.Final != "" {
		fmt.Fprintf(&b, " final(%s)", c.Final)
	}
	if c.Grainsize > 0 {
		fmt.Fprintf(&b, " grainsize(%d)", c.Grainsize)
	}
	if c.NumTasks > 0 {
		fmt.Fprintf(&b, " num_tasks(%d)", c.NumTasks)
	}
	if c.Priority != "" {
		fmt.Fprintf(&b, " priority(%s)", c.Priority)
	}
	if c.Untied {
		b.WriteString(" untied")
	}
	if c.Mergeable {
		b.WriteString(" mergeable")
	}
	if c.NoGroup {
		b.WriteString(" nogroup")
	}
	if c.NoWait {
		b.WriteString(" nowait")
	}
	if len(c.Sizes) > 0 {
		strs := make([]string, len(c.Sizes))
		for i, s := range c.Sizes {
			strs[i] = strconv.FormatInt(s, 10)
		}
		fmt.Fprintf(&b, " sizes(%s)", strings.Join(strs, ","))
	}
	switch c.Unroll {
	case UnrollFull:
		b.WriteString(" full")
	case UnrollPartial:
		if c.UnrollFactor > 0 {
			fmt.Fprintf(&b, " partial(%d)", c.UnrollFactor)
		} else {
			b.WriteString(" partial")
		}
	}
	if len(c.ThreadPrivateVars) > 0 {
		fmt.Fprintf(&b, "(%s)", strings.Join(c.ThreadPrivateVars, ","))
	}
	return b.String()
}
