package core

import (
	"fmt"
	"slices"
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
	// rather than silently ignored ("Directives and clauses" in doc.go).
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

// Clause limits. MaxChunk and MaxCollapse are the paper's §III-A2 limits,
// the field widths of its 32-bit clause packing; MaxTaskIter and
// MaxTileSize extend that packing to taskloop and tile. Nothing packs
// clauses here: the four are kept as a dialect rule, so every accepted
// pragma still fits the paper's encoding.
const (
	// MaxChunk bounds the schedule chunk: a chunk must be below 2^29 (the
	// paper's "maximum chunk of 536870912 iterations").
	MaxChunk = 1 << 29
	// MaxCollapse is the deepest collapse: "it is unlikely that a user
	// would wish to collapse more than 16 loops".
	MaxCollapse = 15
	// MaxTaskIter bounds grainsize and num_tasks: a value must be below
	// 2^30.
	MaxTaskIter = 1 << 30
	// MaxTileSize bounds each tile size: a size must be below 2^29.
	MaxTileSize = 1 << 29
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
	c, r := &d.Clauses, d.Clauses.rare()

	type check struct {
		present bool
		set     clauseSet
		name    string
	}
	for _, ch := range []check{
		{c.Count(VarPrivate) > 0, allowPrivate, "private"},
		{c.Count(VarFirstPrivate) > 0, allowFirstPrivate, "firstprivate"},
		{c.Count(VarLastPrivate) > 0, allowLastPrivate, "lastprivate"},
		{c.Count(VarShared) > 0, allowShared, "shared"},
		{len(r.CopyPrivate) > 0, allowCopyPrivate, "copyprivate"},
		{len(c.Reductions) > 0, allowReduction, "reduction"},
		{c.HasSchedule, allowSchedule, "schedule"},
		{c.Default != DefaultUnset, allowDefault, "default"},
		{c.NoWait, allowNoWait, "nowait"},
		{c.Collapse > 0, allowCollapse, "collapse"},
		{c.Ordered, allowOrdered, "ordered"},
		{c.NumThreads != "", allowNumThreads, "num_threads"},
		{c.If != "", allowIf, "if"},
		{r.Final != "", allowFinal, "final"},
		{r.Untied, allowUntied, "untied"},
		{r.Grainsize > 0, allowGrainsize, "grainsize"},
		{r.NumTasks > 0, allowNumTasks, "num_tasks"},
		{r.NoGroup, allowNoGroup, "nogroup"},
		{len(r.Depends) > 0, allowDepend, "depend"},
		{r.Priority != "", allowPriority, "priority"},
		{r.Mergeable, allowMergeable, "mergeable"},
		{len(r.Sizes) > 0, allowSizes, "sizes"},
		{r.Unroll != UnrollNone, allowUnrollSpec, r.Unroll.String()},
	} {
		if ch.present && allowed&ch.set == 0 {
			return fmt.Errorf("pragma: clause %s is not permitted on the %s directive", ch.name, d.Kind)
		}
	}

	if c.HasSchedule && c.Chunk >= MaxChunk {
		return fmt.Errorf("pragma: chunk %d exceeds the maximum %d", c.Chunk, MaxChunk-1)
	}
	if c.Collapse > MaxCollapse {
		return fmt.Errorf("pragma: collapse %d exceeds the maximum %d", c.Collapse, MaxCollapse)
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
	// simply puts the loop on one range the team shares.
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
	if r.Grainsize > 0 && r.NumTasks > 0 {
		return fmt.Errorf("pragma: grainsize and num_tasks are mutually exclusive (OpenMP 5.2 §12.6)")
	}
	if r.Grainsize >= MaxTaskIter || r.NumTasks >= MaxTaskIter {
		return fmt.Errorf("pragma: task granularity exceeds the maximum %d", int64(MaxTaskIter)-1)
	}

	// Depend items: a storage location may appear in at most one depend
	// clause item per task (OpenMP 5.2 §15.9.5 forbids conflicting
	// dependence types on one list item; merging identical ones would be
	// legal but is rejected too — a duplicate is a pragma typo).
	depSeen := map[string]DependMode{}
	for _, dc := range r.Depends {
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
	record := func(v, clause string) error {
		if prev, dup := seen[v]; dup {
			return fmt.Errorf("pragma: variable %s appears in both %s and %s clauses", v, prev, clause)
		}
		seen[v] = clause
		return nil
	}
	for _, k := range [...]VarClause{VarPrivate, VarFirstPrivate, VarShared} {
		for v := range c.Names(k) {
			if err := record(v, k.String()); err != nil {
				return err
			}
		}
	}
	// lastprivate may combine with firstprivate (OpenMP allows the pair)
	// but not with private/shared.
	for v := range c.Names(VarLastPrivate) {
		if prev, dup := seen[v]; dup && prev != "firstprivate" {
			return fmt.Errorf("pragma: variable %s appears in both %s and lastprivate clauses", v, prev)
		}
	}
	for _, red := range c.Reductions {
		for _, v := range red.Vars {
			if err := record(v, "reduction("+red.Op.String()+")"); err != nil {
				return err
			}
		}
	}

	if d.Kind == DirThreadPrivate && len(r.ThreadPrivateVars) == 0 {
		return fmt.Errorf("pragma: threadprivate requires a variable list")
	}
	// Loop-transformation constraints: tile must know the nest depth (one
	// size per loop); unroll's factor travels with the partial selector.
	if d.Kind == DirTile && len(r.Sizes) == 0 {
		return fmt.Errorf("pragma: tile requires a sizes clause naming one tile size per loop of the nest")
	}
	if len(r.Sizes) > MaxTileDepth {
		return fmt.Errorf("pragma: tile depth %d exceeds the maximum %d (the generated %d-deep nest would not fit a collapse clause, whose limit is %d)",
			len(r.Sizes), MaxTileDepth, 2*len(r.Sizes), MaxCollapse)
	}
	for _, s := range r.Sizes {
		if s < 1 || s >= MaxTileSize {
			return fmt.Errorf("pragma: tile size %d outside [1, %d)", s, MaxTileSize)
		}
	}
	if r.UnrollFactor > 0 && r.Unroll != UnrollPartial {
		return fmt.Errorf("pragma: an unroll factor requires the partial clause")
	}
	if r.UnrollFactor > MaxUnrollFactor {
		return fmt.Errorf("pragma: unroll factor %d exceeds the maximum %d (the factor multiplies generated code size)", r.UnrollFactor, MaxUnrollFactor)
	}
	// The construct-kind argument travels in the Cancel field; it is
	// mandatory on the cancellation directives (the parser enforces the
	// spelling, this guards programmatic construction) and meaningless
	// anywhere else.
	switch d.Kind {
	case DirCancel, DirCancellationPoint:
		if r.Cancel == CancelNone {
			return fmt.Errorf("pragma: %s requires a construct kind (parallel, for, or taskgroup)", d.Kind)
		}
	default:
		if r.Cancel != CancelNone {
			return fmt.Errorf("pragma: construct kind %s is only valid on cancel directives", r.Cancel)
		}
	}
	return nil
}

// DistributeParallelFor splits the clause set of a fused parallel-for into
// the parallel part and the for part, per the OpenMP rules for combined
// constructs: data-sharing and team clauses go to parallel, loop clauses to
// for. Reductions ride on the loop (the loop-level lowering folds into the
// shared variable, which the region shares by default).
func DistributeParallelFor(d *Directive) (par, loop Directive) {
	c := &d.Clauses
	parVars, loopVars := splitVars(c.Vars, VarLastPrivate)
	par = Directive{Kind: DirParallel, Clauses: Clauses{
		Vars:       parVars,
		Default:    c.Default,
		NumThreads: c.NumThreads,
		If:         c.If,
	}}
	loop = Directive{Kind: DirFor, Clauses: Clauses{
		Vars:        loopVars,
		Reductions:  c.Reductions,
		Sched:       c.Sched,
		Chunk:       c.Chunk,
		HasSchedule: c.HasSchedule,
		SchedMod:    c.SchedMod,
		Collapse:    c.Collapse,
		Ordered:     c.Ordered,
		// The fused construct needs one rendezvous, not two: the inner
		// loop runs nowait and the parallel join is its closing barrier
		// (lastprivate stores precede it; a reduction folds at its own
		// barrier before it).
		NoWait: true,
	}}
	return par, loop
}

// splitVars splits vars into the variables of other clauses and those of
// clause k, in the order written. A side that takes every variable shares
// vars.
func splitVars(vars []ListedVar, k VarClause) (others, these []ListedVar) {
	n := 0
	for _, v := range vars {
		if v.Clause == k {
			n++
		}
	}
	switch n {
	case 0:
		return vars, nil
	case len(vars):
		return nil, vars
	}
	others, these = make([]ListedVar, 0, len(vars)-n), make([]ListedVar, 0, n)
	for _, v := range vars {
		if v.Clause == k {
			these = append(these, v)
		} else {
			others = append(others, v)
		}
	}
	return others, these
}

// String renders a directive back to pragma surface syntax (diagnostics,
// golden tests).
func (d *Directive) String() string {
	var b strings.Builder
	b.WriteString(d.Kind.String())
	c, r := &d.Clauses, d.Clauses.rare()
	if d.Kind == DirCritical && r.Name != "" {
		fmt.Fprintf(&b, "(%s)", r.Name)
	}
	if r.Cancel != CancelNone {
		fmt.Fprintf(&b, " %s", r.Cancel)
	}
	list := func(name string, vars []string) {
		if len(vars) > 0 {
			fmt.Fprintf(&b, " %s(%s)", name, strings.Join(vars, ","))
		}
	}
	for _, k := range [...]VarClause{VarPrivate, VarFirstPrivate, VarLastPrivate, VarShared} {
		list(k.String(), slices.Collect(c.Names(k)))
	}
	list("copyprivate", r.CopyPrivate)
	for _, r := range c.Reductions {
		fmt.Fprintf(&b, " reduction(%s:%s)", r.Op, strings.Join(r.Vars, ","))
	}
	for _, dc := range r.Depends {
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
	if r.Final != "" {
		fmt.Fprintf(&b, " final(%s)", r.Final)
	}
	if r.Grainsize > 0 {
		fmt.Fprintf(&b, " grainsize(%d)", r.Grainsize)
	}
	if r.NumTasks > 0 {
		fmt.Fprintf(&b, " num_tasks(%d)", r.NumTasks)
	}
	if r.Priority != "" {
		fmt.Fprintf(&b, " priority(%s)", r.Priority)
	}
	if r.Untied {
		b.WriteString(" untied")
	}
	if r.Mergeable {
		b.WriteString(" mergeable")
	}
	if r.NoGroup {
		b.WriteString(" nogroup")
	}
	if c.NoWait {
		b.WriteString(" nowait")
	}
	if len(r.Sizes) > 0 {
		strs := make([]string, len(r.Sizes))
		for i, s := range r.Sizes {
			strs[i] = strconv.FormatInt(s, 10)
		}
		fmt.Fprintf(&b, " sizes(%s)", strings.Join(strs, ","))
	}
	switch r.Unroll {
	case UnrollFull:
		b.WriteString(" full")
	case UnrollPartial:
		if r.UnrollFactor > 0 {
			fmt.Fprintf(&b, " partial(%d)", r.UnrollFactor)
		} else {
			b.WriteString(" partial")
		}
	}
	if len(r.ThreadPrivateVars) > 0 {
		fmt.Fprintf(&b, "(%s)", strings.Join(r.ThreadPrivateVars, ","))
	}
	return b.String()
}
