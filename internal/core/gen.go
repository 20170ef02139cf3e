package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"sort"
	"strings"
)

// Per-directive code generation: the «perform … replacement» half of the
// paper's Listing 5. Every generator produces plain-text Go that calls the
// omp runtime; gofmt at the end of Preprocess normalises layout.

// schedConst maps the packed 3-bit schedule enum to the omp constant
// generated code references.
func schedConst(s SchedEnum) string {
	switch s {
	case SchedStatic:
		return "omp.Static"
	case SchedDynamic:
		return "omp.Dynamic"
	case SchedGuided:
		return "omp.Guided"
	case SchedRuntime:
		return "omp.Runtime"
	case SchedAuto:
		return "omp.Auto"
	case SchedTrapezoid:
		return "omp.Trapezoidal"
	}
	return ""
}

func (lw *lowerer) locArg(n *node, region string) string {
	return fmt.Sprintf("omp.Loc(%q, %d, %q)", lw.opts.Filename, n.line, region)
}

// gen dispatches to the per-directive generators.
func (lw *lowerer) gen(n *node) string {
	switch n.d.Kind {
	case DirParallel:
		return lw.genParallel(n)
	case DirFor:
		return lw.genFor(n)
	case DirSections:
		return lw.genSections(n)
	case DirSingle:
		return lw.genSingle(n)
	case DirMaster:
		return lw.genWrapped(n, "a master block", "omp.Masked", "")
	case DirOrdered:
		// The enclosing loop must carry the ordered clause (shape checked
		// it); with no enclosing loop the runtime degenerates to direct
		// execution, the spec's binding rule for orphaned constructs.
		return lw.genWrapped(n, "an ordered block", "omp.Ordered", "")
	case DirTaskgroup:
		// The block runs on the encountering thread, which then waits for
		// every descendant task spawned inside.
		return lw.genWrapped(n, "a taskgroup", "omp.Taskgroup", ", "+lw.locArg(n, "taskgroup"))
	case DirCritical:
		body, ok := lw.block(n, "a critical block")
		if !ok {
			return ""
		}
		return fmt.Sprintf("omp.Critical(%q, func() {\n%s\n})", n.d.Clauses.Name, body)
	case DirAtomic:
		return lw.genAtomic(n)
	case DirBarrier:
		tvar := lw.threadVar(n)
		if tvar == "" {
			return "omp.Barrier(omp.Current())"
		}
		if g := lw.cancelGuard(tvar, false); g != "" {
			return fmt.Sprintf("omp.Barrier(%s)\n%s", tvar, g)
		}
		return fmt.Sprintf("omp.Barrier(%s)", tvar)
	case DirTaskwait:
		return fmt.Sprintf("omp.Taskwait(%s)", lw.threadOrCurrent(n))
	case DirTaskyield:
		// A task scheduling point: the thread may pick up another ready
		// task before resuming.
		return fmt.Sprintf("omp.Taskyield(%s)", lw.threadOrCurrent(n))
	case DirThreadPrivate:
		return "" // the pragma goes; threadPrivate rewrote the declarations
	case DirTask:
		return lw.genTask(n)
	case DirTaskloop:
		return lw.genTaskloop(n)
	case DirCancel, DirCancellationPoint:
		return lw.genCancel(n)
	case DirTile, DirUnroll:
		text, nest := lw.transform(n)
		if nest != nil {
			return lw.loopText(nest)
		}
		return text
	}
	lw.fail(n, "no generator for directive")
	return ""
}

func (lw *lowerer) threadOrCurrent(n *node) string {
	if tvar := lw.threadVar(n); tvar != "" {
		return tvar
	}
	return "omp.Current()"
}

// cancelGuard returns the branch-out guard emitted after a barrier when the
// file uses cancellation: barriers (implicit and explicit) are cancellation
// points, so a thread released from a cancelled team's barrier must skip to
// the end of the enclosing construct instead of running the code behind it.
// The progressive unwinding — each construct's trailing guard pops one
// closure level — is what carries a `cancel parallel` encountered deep
// inside a worksharing loop out to the region's end.
//
// Orphaned constructs get no guard: their barrier sites sit directly in the
// user's function, where a bare return would exit (or fail to compile in)
// the caller; an orphaned construct binds to a team of one whose region
// ends with the function anyway.
func (lw *lowerer) cancelGuard(tvar string, orphan bool) string {
	if orphan || !lw.cancels {
		return ""
	}
	return fmt.Sprintf("if omp.CancellationPoint(%s, omp.CancelParallel) {\nreturn\n}\n", tvar)
}

// shadowDecls emits the private/firstprivate lowering: a same-name local
// copy inside the construct. Both clauses copy — private's initial value is
// unspecified by OpenMP, so initialising it is permitted — and the explicit
// discard keeps Go's unused-variable rule satisfied, the exact challenge
// the paper reports for Zig ("all unused … variables … must be explicitly
// discarded").
func shadowDecls(vars ...[]string) string {
	var b strings.Builder
	seen := map[string]bool{}
	for _, list := range vars {
		for _, v := range list {
			if !seen[v] {
				seen[v] = true
				fmt.Fprintf(&b, "%s := %s\n_ = %s\n", v, v, v)
			}
		}
	}
	return b.String()
}

// checkDefaultNone enforces default(none): every free variable assigned in
// the body must be covered by a data-sharing clause.
func (lw *lowerer) checkDefaultNone(n *node, body ast.Node, exempt ...string) bool {
	c := &n.d.Clauses
	if c.Default != DefaultNone {
		return true
	}
	listed := map[string]bool{}
	for _, l := range [][]string{c.Private, c.FirstPrivate, c.LastPrivate, c.Shared, exempt} {
		for _, v := range l {
			listed[v] = true
		}
	}
	for _, r := range c.Reductions {
		for _, v := range r.Vars {
			listed[v] = true
		}
	}
	for _, v := range assignedFreeIdents(body) {
		if !listed[v] {
			lw.fail(n, "default(none): variable %s is assigned but appears in no data-sharing clause", v)
			return false
		}
	}
	return true
}

// ------------------------------------------------------------- parallel

// genParallel lowers `//omp parallel` and the region half of `//omp
// parallel for`, whose body is the lowered loop half. The region body is
// outlined into a closure passed to omp.Parallel — the fork-call path of
// Section III-B1; closure capture plays the role of the paper's marshalled
// shared-variable group, and region-level reductions become atomic cells
// created before the fork, combined by each thread, and read back after
// the join.
func (lw *lowerer) genParallel(n *node) string {
	c := &n.d.Clauses
	defer lw.bindThread(n, "__omp_t")()
	var body string
	if n.pragma.Kind != DirParallelFor {
		var ok bool
		if body, ok = lw.block(n, "a parallel region"); !ok {
			return ""
		}
	} else if _, ok := n.stmt.(*ast.ForStmt); !ok {
		lw.fail(n, "%v", errNotFor)
		return ""
	} else if hasEscapingReturn(n.stmt) {
		lw.failReturn(n, "a parallel region")
		return ""
	} else if !lw.checkDefaultNone(n, n.stmt) {
		return ""
	} else {
		body = lw.lower(n.Subdirectives[0])
	}

	var pre, head, tail, post strings.Builder
	head.WriteString(shadowDecls(c.Private, c.FirstPrivate))
	for _, r := range c.Reductions {
		for _, v := range r.Vars {
			cell, ctor := "__omp_red_"+v, "omp.NewReduction"
			if r.Op == RedLogicalAnd || r.Op == RedLogicalOr {
				ctor = "omp.NewBoolReduction"
			}
			fmt.Fprintf(&pre, "%s := %s(%s, %s)\n", cell, ctor, r.Op.RuntimeName(), v)
			// The thread-local copy shadows the shared variable for
			// the whole region, initialised to the operator's
			// identity as the standard requires (Section III-B1).
			fmt.Fprintf(&head, "%s := %s.Identity()\n_ = %s\n", v, cell, v)
			fmt.Fprintf(&tail, "%s.Combine(%s)\n", cell, v)
			fmt.Fprintf(&post, "%s = %s.Value()\n", v, cell)
		}
	}
	args := ""
	if c.NumThreads != "" {
		args += fmt.Sprintf("omp.NumThreads(%s), ", lw.expr(c.NumThreads))
	}
	if c.If != "" {
		args += fmt.Sprintf("omp.If(%s), ", lw.expr(c.If))
	}
	return fmt.Sprintf("{\n%somp.Parallel(func(__omp_t *omp.Thread) {\n%s%s\n%s}, %s%s)\n%s}",
		pre.String(), head.String(), body, tail.String(), args, lw.locArg(n, "parallel"), post.String())
}

// ------------------------------------------------------------------ for

// loopRenames gives the reduction and lastprivate variables of a loop
// directive fresh per-thread names inside body — the variable rewriting of
// Section III-B3; each of vars is a {variable, new name} pair. Declarations
// that would capture a renamed variable are rejected — Go allows shadowing,
// Zig does not, and the paper's identifier-equality rule is only sound
// without it — and so is a nested directive naming one in a data-sharing
// clause, whose generated copy would be such a declaration.
func (lw *lowerer) loopRenames(n *node, nest *loopNest, vars [][2]string) ([]splice, bool) {
	var out []splice
	for _, pair := range vars {
		v := pair[0]
		for _, h := range nest.hs {
			if h.Var == v {
				lw.fail(n, "loop variable %s cannot carry a reduction/lastprivate clause", v)
				return nil, false
			}
		}
		if declaresIdent(nest.body, v) || slices.Contains(nest.declared, v) {
			lw.fail(n, "variable %s is redeclared inside the loop body; shadowing a rewritten variable is not supported", v)
			return nil, false
		}
		if sub := clauseNaming(nest.owner.Subdirectives, v, true); sub != nil {
			lw.fail(n, "variable %s is named in a clause of the nested %s directive on line %d; shadowing a rewritten variable is not supported", v, sub.pragma.Kind, sub.line)
			return nil, false
		}
		for _, off := range identOffsets(lw.tf, nest.body, v) {
			out = append(out, splice{off, off + len(v), pair[1]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].off < out[j].off })
	return out, true
}

// clauseNaming finds, among subs and everything below them, a directive
// with v in a data-sharing or depend clause (or, if asked, copyprivate).
func clauseNaming(subs []*node, v string, copyPrivate bool) *node {
	for _, s := range subs {
		c := &s.d.Clauses
		lists := [][]string{c.Private, c.FirstPrivate, c.LastPrivate}
		if copyPrivate {
			lists = append(lists, c.CopyPrivate)
		}
		for _, r := range c.Reductions {
			lists = append(lists, r.Vars)
		}
		for _, d := range c.Depends {
			lists = append(lists, d.Vars)
		}
		if slices.ContainsFunc(lists, func(l []string) bool { return slices.Contains(l, v) }) {
			return s
		}
		if s.inner != nil {
			if found := clauseNaming([]*node{s.inner}, v, copyPrivate); found != nil {
				return found
			}
		}
		if found := clauseNaming(s.Subdirectives, v, copyPrivate); found != nil {
			return found
		}
	}
	return nil
}

// genFor lowers `//omp for`: bounds, increment and comparison operator are
// lifted from the for-statement header (Section III-B2), the iteration
// space is normalised to a trip count, and the body runs under
// omp.ForRange with the requested schedule. Reduction and lastprivate
// variables are renamed to per-thread temporaries inside the body and
// folded back after the loop.
func (lw *lowerer) genFor(n *node) string {
	c := &n.d.Clauses
	depth := max(c.Collapse, 1)
	nest, err := lw.loops(n, depth)
	if err != nil {
		lw.fail(n, "%v", err)
		return ""
	}
	hs := nest.hs[:depth]
	if hasEscapingReturn(nest.body) {
		lw.fail(n, "return inside a worksharing loop is not allowed")
		return ""
	}
	if !lw.checkDefaultNone(n, nest.body, nest.vars()...) {
		return ""
	}

	var pre, combines, lastAssigns strings.Builder
	var renamed [][2]string
	for _, r := range c.Reductions {
		for _, v := range r.Vars {
			local := "__omp_red_" + v
			renamed = append(renamed, [2]string{v, local})
			switch r.Op {
			case RedLogicalAnd:
				fmt.Fprintf(&pre, "%s := true\n", local)
			case RedLogicalOr:
				fmt.Fprintf(&pre, "%s := false\n", local)
			default:
				fmt.Fprintf(&pre, "%s := omp.ReduceIdentity(%s, %s)\n", local, r.Op.RuntimeName(), v)
			}
			fmt.Fprintf(&pre, "_ = %s\n", local)
			switch r.Op {
			case RedMin:
				fmt.Fprintf(&combines, "omp.Critical(\"__omp_red\", func() { if %s < %s { %s = %s } })\n", local, v, v, local)
			case RedMax:
				fmt.Fprintf(&combines, "omp.Critical(\"__omp_red\", func() { if %s > %s { %s = %s } })\n", local, v, v, local)
			default:
				fmt.Fprintf(&combines, "omp.Critical(\"__omp_red\", func() { %s = %s %s %s })\n", v, v, r.Op.GoOperator(), local)
			}
		}
	}
	for _, v := range c.LastPrivate {
		local := "__omp_lp_" + v
		renamed = append(renamed, [2]string{v, local})
		fmt.Fprintf(&pre, "%s := %s\n_ = %s\n", local, v, local)
		fmt.Fprintf(&lastAssigns, "if __omp_k == __omp_trip-1 { %s = %s }\n", v, local)
	}
	renames, ok := lw.loopRenames(n, nest, renamed)
	if !ok {
		return ""
	}
	tvar, bind, orphan := lw.team(n)
	saved := lw.renames
	lw.renames = mergeSplices(saved, renames)
	bodyText := lw.nestBody(nest, depth)
	lw.renames = saved

	var b strings.Builder
	b.WriteString("{\n" + bind)
	// Bounds per nest level, evaluated once before any shadowing.
	for i, h := range hs {
		fmt.Fprintf(&b, "__omp_lb%d := int64(%s)\n", i, h.LB)
		fmt.Fprintf(&b, "__omp_st%d := int64(%s)\n", i, h.Step)
		fmt.Fprintf(&b, "__omp_trip%d := omp.TripCount(__omp_lb%d, int64(%s), __omp_st%d, %t)\n",
			i, i, h.UB, i, h.Inclusive)
	}
	// Suffix products for collapse index reconstruction.
	for i := 0; i < len(hs)-1; i++ {
		terms := make([]string, 0, len(hs)-i-1)
		for j := i + 1; j < len(hs); j++ {
			terms = append(terms, fmt.Sprintf("__omp_trip%d", j))
		}
		fmt.Fprintf(&b, "__omp_suf%d := %s\n", i, strings.Join(terms, " * "))
	}
	if len(hs) == 1 {
		b.WriteString("__omp_trip := __omp_trip0\n")
	} else {
		b.WriteString("__omp_trip := __omp_trip0 * __omp_suf0\n")
	}
	b.WriteString(shadowDecls(c.Private, c.FirstPrivate))
	b.WriteString(pre.String())

	fmt.Fprintf(&b, "omp.ForRange(%s, __omp_trip, func(__omp_clo, __omp_chi int64) {\n", tvar)
	b.WriteString("for __omp_k := __omp_clo; __omp_k < __omp_chi; __omp_k++ {\n")
	if len(hs) == 1 {
		h := hs[0]
		fmt.Fprintf(&b, "%s := int(__omp_lb0 + __omp_k*__omp_st0)\n_ = %s\n", h.Var, h.Var)
	} else {
		b.WriteString("__omp_r := __omp_k\n")
		for i, h := range hs {
			if i < len(hs)-1 {
				fmt.Fprintf(&b, "%s := int(__omp_lb%d + (__omp_r/__omp_suf%d)*__omp_st%d)\n_ = %s\n",
					h.Var, i, i, i, h.Var)
				fmt.Fprintf(&b, "__omp_r %%= __omp_suf%d\n", i)
			} else {
				fmt.Fprintf(&b, "%s := int(__omp_lb%d + __omp_r*__omp_st%d)\n_ = %s\n",
					h.Var, i, i, h.Var)
			}
		}
	}
	b.WriteString(bodyText + "\n")
	b.WriteString(lastAssigns.String())
	b.WriteString("}\n}, omp.NoWait()") // the barrier is emitted explicitly below
	if c.HasSchedule {
		mod := ""
		if c.SchedMod != SchedModNone {
			mod = ", " + c.SchedMod.RuntimeName()
		}
		fmt.Fprintf(&b, ", omp.Schedule(%s, %d%s)", schedConst(c.Sched), c.Chunk, mod)
	}
	if c.Ordered {
		b.WriteString(", omp.OrderedClause()")
	}
	b.WriteString(", " + lw.locArg(n, "for") + ")\n")
	b.WriteString(combines.String())
	if !c.NoWait {
		fmt.Fprintf(&b, "omp.Barrier(%s)\n", tvar)
		b.WriteString(lw.cancelGuard(tvar, orphan))
	}
	b.WriteString("}")
	return b.String()
}

// --------------------------------------------------------------- sections

// genSections lowers `//omp sections` over a block whose top-level
// statement groups are delimited by `//omp section` pragmas: one closure
// per section node of the tree.
func (lw *lowerer) genSections(n *node) string {
	c := &n.d.Clauses
	blk, ok := n.stmt.(*ast.BlockStmt)
	if !ok || n.inner != nil {
		lw.fail(n, "directive must immediately precede a { … } block")
		return ""
	}
	if hasEscapingReturn(blk) {
		lw.failReturn(n, "sections")
		return ""
	}
	tvar, bind, orphan := lw.team(n)
	shadows := shadowDecls(c.Private, c.FirstPrivate)

	var b strings.Builder
	fmt.Fprintf(&b, "{\n%somp.Sections(%s, []func(){\n", bind, tvar)
	for _, sec := range n.Subdirectives {
		lw.cur, sec.done = sec, true // cur is restored by lower
		fmt.Fprintf(&b, "func() {\n%s%s\n},\n", shadows, lw.text(sec.start, sec.end))
	}
	b.WriteString("}")
	if c.NoWait {
		b.WriteString(", omp.NoWait()")
	}
	b.WriteString(", " + lw.locArg(n, "sections") + ")\n")
	if !c.NoWait {
		b.WriteString(lw.cancelGuard(tvar, orphan)) // the construct's implicit barrier is a cancellation point
	}
	b.WriteString("}")
	return b.String()
}

// ------------------------------------------------- single/master/critical

func (lw *lowerer) genSingle(n *node) string {
	c := &n.d.Clauses
	body, ok := lw.block(n, "a single block")
	if !ok {
		return ""
	}
	if len(c.CopyPrivate) > 1 {
		lw.fail(n, "copyprivate supports a single variable in this implementation")
		return ""
	}
	tvar, bind, orphan := lw.team(n)
	shadows := shadowDecls(c.Private, c.FirstPrivate)

	var b strings.Builder
	b.WriteString("{\n" + bind)
	if len(c.CopyPrivate) == 1 {
		v := lw.expr(c.CopyPrivate[0])
		fmt.Fprintf(&b, "if %s.Single() {\n%s%s", tvar, shadows, body)
		fmt.Fprintf(&b, "\nomp.CopyPrivatePublish(%s, %s)\n}\n", tvar, v)
		fmt.Fprintf(&b, "omp.Barrier(%s)\n", tvar)
		fmt.Fprintf(&b, "omp.CopyPrivateAssign(%s, &%s)\n", tvar, v)
		if !c.NoWait {
			fmt.Fprintf(&b, "omp.Barrier(%s)\n", tvar)
		}
	} else {
		fmt.Fprintf(&b, "omp.Single(%s, func() {\n%s%s\n}", tvar, shadows, body)
		if c.NoWait {
			b.WriteString(", omp.NoWait()")
		}
		b.WriteString(")\n")
	}
	if !c.NoWait {
		b.WriteString(lw.cancelGuard(tvar, orphan)) // the closing barrier is a cancellation point
	}
	b.WriteString("}")
	return b.String()
}

// genWrapped lowers the constructs that run their block under one runtime
// call taking the thread and a niladic closure: master, ordered, taskgroup.
func (lw *lowerer) genWrapped(n *node, what, call, args string) string {
	body, ok := lw.block(n, what)
	if !ok {
		return ""
	}
	tvar, bind, _ := lw.team(n)
	return fmt.Sprintf("{\n%s%s(%s, func() {\n%s\n}%s)\n}", bind, call, tvar, body, args)
}

// genAtomic serialises the following update statement. The lowering is a
// named critical section rather than a bare atomic instruction: without
// type information the preprocessor cannot choose an atomic cell, and the
// OpenMP atomic directive only promises atomicity, which mutual exclusion
// provides. Kernels that need true lock-free updates use the
// omp.AtomicInt64/AtomicFloat64 cells directly.
func (lw *lowerer) genAtomic(n *node) string {
	switch n.stmt.(type) {
	case *ast.AssignStmt, *ast.IncDecStmt:
		if n.inner == nil {
			return fmt.Sprintf("omp.Critical(\"__omp_atomic\", func() { %s })", lw.posText(n.stmt.Pos(), n.stmt.End()))
		}
	}
	lw.fail(n, "directive must immediately precede an assignment or increment statement")
	return ""
}

// ---------------------------------------------------------------- tasking

// taskOptionArgs renders the clause options shared by task and taskloop.
// Depend items lower to omp.DependIn("v", &v)-style options: the variable's
// address is the dependence address, its spelling the diagnostic name.
func (lw *lowerer) taskOptionArgs(n *node, region string) string {
	c := &n.d.Clauses
	var b strings.Builder
	if c.If != "" {
		fmt.Fprintf(&b, ", omp.If(%s)", lw.expr(c.If))
	}
	if c.Final != "" {
		fmt.Fprintf(&b, ", omp.Final(%s)", lw.expr(c.Final))
	}
	if c.Untied {
		b.WriteString(", omp.Untied()")
	}
	if c.Mergeable {
		b.WriteString(", omp.Mergeable()")
	}
	if c.Grainsize > 0 {
		fmt.Fprintf(&b, ", omp.Grainsize(%d)", c.Grainsize)
	}
	if c.NumTasks > 0 {
		fmt.Fprintf(&b, ", omp.NumTasks(%d)", c.NumTasks)
	}
	if c.NoGroup {
		b.WriteString(", omp.NoGroup()")
	}
	if c.Priority != "" {
		fmt.Fprintf(&b, ", omp.Priority(%s)", lw.expr(c.Priority))
	}
	for _, dc := range c.Depends {
		for _, v := range dc.Vars {
			fmt.Fprintf(&b, ", %s(%q, &%s)", dc.Mode.RuntimeName(), v, v)
		}
	}
	return b.String() + ", " + lw.locArg(n, region)
}

// genTask lowers `//omp task` over the following block into an omp.Task call
// deferring the outlined body. Firstprivate values are copied into same-name
// locals outside the closure — capture by copy at task *creation* time, as
// the standard requires — while private variables shadow inside the deferred
// body. The closure receives the *executing* thread as a shadowing parameter
// so that nested directives inside the task body bind to whichever thread
// steals the task, not to its creator.
func (lw *lowerer) genTask(n *node) string {
	c := &n.d.Clauses
	tvar, bind, _ := lw.team(n)
	defer lw.bindThread(n, tvar)()
	body, ok := lw.block(n, "a task")
	if !ok {
		return ""
	}
	return fmt.Sprintf("{\n%s%somp.Task(%s, func(%s *omp.Thread) {\n%s%s\n}%s)\n}",
		bind, shadowDecls(c.FirstPrivate), // creation-time copies the closure captures
		tvar, tvar, shadowDecls(c.Private), body, lw.taskOptionArgs(n, "task"))
}

// genTaskloop lowers `//omp taskloop`: the canonical for statement is
// normalised to a trip count exactly as genFor does, but the iteration space
// is carved into explicit tasks by grainsize/num_tasks instead of being
// dispatched to the team — the second, chunk-granular lowering strategy for
// loops. The chunk closure receives the executing thread (tasks migrate
// between threads), and unless nogroup is present the encountering thread
// waits for all chunks under an implicit taskgroup.
func (lw *lowerer) genTaskloop(n *node) string {
	c := &n.d.Clauses
	nest, err := lw.loops(n, 1)
	if err != nil {
		lw.fail(n, "%v", err)
		return ""
	}
	h := nest.hs[0]
	if hasEscapingReturn(nest.body) {
		lw.fail(n, "return inside a taskloop is not allowed")
		return ""
	}
	if !lw.checkDefaultNone(n, nest.body, nest.vars()...) {
		return ""
	}
	tvar, bind, _ := lw.team(n)
	defer lw.bindThread(n, tvar)()
	body := lw.nestBody(nest, 1)

	var b strings.Builder
	b.WriteString("{\n" + bind)
	fmt.Fprintf(&b, "__omp_lb0 := int64(%s)\n", h.LB)
	fmt.Fprintf(&b, "__omp_st0 := int64(%s)\n", h.Step)
	fmt.Fprintf(&b, "__omp_trip := omp.TripCount(__omp_lb0, int64(%s), __omp_st0, %t)\n", h.UB, h.Inclusive)
	b.WriteString(shadowDecls(c.FirstPrivate)) // creation-time snapshot
	fmt.Fprintf(&b, "omp.Taskloop(%s, __omp_trip, func(%s *omp.Thread, __omp_clo, __omp_chi int64) {\n", tvar, tvar)
	// Per-task copies: each chunk task privatises from the snapshot.
	b.WriteString(shadowDecls(c.Private, c.FirstPrivate))
	b.WriteString("for __omp_k := __omp_clo; __omp_k < __omp_chi; __omp_k++ {\n")
	fmt.Fprintf(&b, "%s := int(__omp_lb0 + __omp_k*__omp_st0)\n_ = %s\n", h.Var, h.Var)
	b.WriteString(body)
	b.WriteString("\n}\n}" + lw.taskOptionArgs(n, "taskloop") + ")\n}")
	return b.String()
}

// ----------------------------------------------------------- cancellation

// genCancel lowers the standalone `//omp cancel {parallel|for|taskgroup}`
// and `//omp cancellation point …` directives. omp.Cancel activates
// cancellation and reports whether the encountering thread must branch to
// the end of the construct, which the generated guard performs with a bare
// return — every outlined construct body (parallel region closure,
// worksharing chunk closure, task body) is a niladic function, so the
// return exits exactly the innermost construct. An if clause gates
// activation, short-circuiting before the runtime call as the standard's
// `cancel ... if(expr)` requires — but a cancel region is itself a
// cancellation point regardless of the clause (OpenMP 5.2 §11.5), so the
// false branch still consults CancellationPoint: a thread whose condition
// is false must still honour cancellation another thread already activated.
//
// The directive must be lexically inside a construct that carries a thread
// context: a cancel with no enclosing *omp.Thread cannot know which team to
// cancel (OpenMP's "innermost enclosing region" does not exist), so it is a
// preprocessing error rather than a silent no-op.
func (lw *lowerer) genCancel(n *node) string {
	c := &n.d.Clauses
	tvar := lw.threadVar(n)
	if tvar == "" {
		lw.fail(n, "%s %s outside a parallel region: no enclosing construct provides a thread context", n.d.Kind, c.Cancel)
		return ""
	}
	point := fmt.Sprintf("omp.CancellationPoint(%s, %s)", tvar, c.Cancel.RuntimeName())
	cond := point
	if n.d.Kind == DirCancel {
		cond = fmt.Sprintf("omp.Cancel(%s, %s)", tvar, c.Cancel.RuntimeName())
		if c.If != "" {
			cond = fmt.Sprintf("((%s) && %s) || %s", lw.expr(c.If), cond, point)
		}
	}
	return fmt.Sprintf("if %s {\nreturn\n}", cond)
}

// ---------------------------------------------------------- threadprivate

// threadPrivate rewrites package-level variables to per-thread storage
// before anything is lowered: `var x T` becomes a ThreadPrivate[T] cell and
// every use of x in the file — clause expressions included — becomes an
// accessor call. Requires an explicit type on the declaration (the
// preprocessor has no type inference — the same "lack of semantic context"
// constraint the paper works under). The rewrites join the renames in force
// for the whole file.
func (lw *lowerer) threadPrivate() error {
	var out []splice
	for _, p := range lw.pragmas {
		if p.d.Kind != DirThreadPrivate {
			continue
		}
		for _, v := range p.d.Clauses.ThreadPrivateVars {
			var spec *ast.ValueSpec
			var decl *ast.GenDecl
			for _, d := range lw.file.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, s := range gd.Specs {
					vs := s.(*ast.ValueSpec)
					for _, name := range vs.Names {
						if name.Name == v {
							if len(gd.Specs) != 1 || len(vs.Names) != 1 {
								return lw.errf(p, "threadprivate variable %s must be declared alone (one var per declaration)", v)
							}
							spec, decl = vs, gd
						}
					}
				}
			}
			switch {
			case spec == nil:
				return lw.errf(p, "threadprivate variable %s has no package-level var declaration in this file", v)
			case spec.Type == nil:
				return lw.errf(p, "threadprivate variable %s needs an explicit type on its declaration", v)
			case len(spec.Values) > 1:
				return lw.errf(p, "threadprivate variable %s: multi-value declarations are not supported", v)
			case lw.tpVars[v] != "":
				return lw.errf(p, "threadprivate variable %s is listed twice", v)
			}
			for _, fd := range lw.file.Decls {
				if fn, ok := fd.(*ast.FuncDecl); ok && fn.Body != nil && declaresIdent(fn.Body, v) {
					return lw.errf(p, "threadprivate variable %s is shadowed inside %s; shadowing is not supported", v, fn.Name.Name)
				}
			}
			// A generated private copy would be such a shadow, and the spec
			// keeps threadprivate variables out of these clauses anyway.
			if q := clauseNaming(lw.root.Subdirectives, v, false); q != nil {
				return lw.errf(q, "threadprivate variable %s cannot appear in a data-sharing or depend clause", v)
			}

			typeText := string(lw.src[lw.off(spec.Type.Pos()):lw.off(spec.Type.End())])
			cell, initFn := "__omp_tp_"+v, "nil"
			if len(spec.Values) == 1 {
				val := spec.Values[0]
				initFn = fmt.Sprintf("func() *%s { var __omp_v %s = %s; return &__omp_v }",
					typeText, typeText, lw.src[lw.off(val.Pos()):lw.off(val.End())])
			}
			from, to := lw.off(decl.Pos()), lw.off(decl.End())
			out = append(out, splice{from, to, fmt.Sprintf("var %s = omp.NewThreadPrivate[%s](%s)", cell, typeText, initFn)})
			access := fmt.Sprintf("(*%s.Get(omp.Current()))", cell)
			for _, off := range identOffsets(lw.tf, lw.file, v) {
				if off < from || off >= to { // the declaration itself is being replaced
					out = append(out, splice{off, off + len(v), access})
				}
			}
			if lw.tpVars == nil {
				lw.tpVars = map[string]string{}
			}
			lw.tpVars[v] = access
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].off < out[j].off })
	lw.renames = mergeSplices(lw.renames, out)
	return nil
}

// expr returns a clause's raw host expression with the file's threadprivate
// variables replaced by their accessors, as they are everywhere else.
func (lw *lowerer) expr(s string) string {
	if len(lw.tpVars) == 0 {
		return s
	}
	fset := token.NewFileSet()
	e, err := parser.ParseExprFrom(fset, "", s, 0)
	if err != nil {
		return s // the generated file will not parse either, and says so
	}
	tf := fset.File(e.Pos())
	var out []splice
	for v, access := range lw.tpVars {
		for _, off := range identOffsets(tf, e, v) {
			out = append(out, splice{off, off + len(v), access})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].off > out[j].off })
	for _, sp := range out {
		s = s[:sp.off] + sp.text + s[sp.end:]
	}
	return s
}
