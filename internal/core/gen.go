package core

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strconv"
)

// Per-directive code generation: the «perform … replacement» half of the
// paper's Listing 5. Every generator writes Go that calls the omp runtime
// through an emitter (emit.go), laid out as emit.go's "Layout" comment says:
// generated lines indented by brace depth, the user's statements moved to
// their new depth, user expressions in a new context printed with gofmt's
// spacing.

// schedConst maps the schedule enum to the omp constant
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
	}
	return ""
}

// loc writes the source location omp.Loc(file, line, region) of n's pragma.
func (lw *lowerer) loc(n *node, region string) {
	e := lw.e
	e.code("omp.Loc(")
	e.quote(lw.opts.Filename)
	e.code(", ")
	e.num(int64(n.line))
	e.put(", \"", region, "\")")
}

// gen dispatches to the per-directive generators, which write n's
// replacement where the emitter stands.
func (lw *lowerer) gen(n *node) {
	e := lw.e
	switch n.d.Kind {
	case DirParallel:
		lw.genParallel(n)
	case DirFor:
		lw.genFor(n)
	case DirSections:
		lw.genSections(n)
	case DirSingle:
		lw.genSingle(n)
	case DirMaster:
		lw.genWrapped(n, "a master block", "omp.Masked", "")
	case DirOrdered:
		// The enclosing loop must carry the ordered clause (shape checked
		// it); with no enclosing loop the runtime degenerates to direct
		// execution, the spec's binding rule for orphaned constructs.
		lw.genWrapped(n, "an ordered block", "omp.Ordered", "")
	case DirTaskgroup:
		// The block runs on the encountering thread, which then waits for
		// every descendant task spawned inside.
		lw.genWrapped(n, "a taskgroup", "omp.Taskgroup", "taskgroup")
	case DirCritical:
		body, ok := lw.block(n, "a critical block")
		if !ok {
			return
		}
		e.code("omp.Critical(")
		e.quote(n.d.Clauses.rare().Name)
		e.code(", func() {\n")
		lw.user(body)
		e.code("\n})")
	case DirAtomic:
		lw.genAtomic(n)
	case DirBarrier:
		tvar := lw.threadVar(n)
		if tvar == "" {
			e.code("omp.Barrier(omp.Current())")
			return
		}
		e.put("omp.Barrier(", tvar, ")")
		if lw.cancels {
			e.code("\n")
			lw.cancelGuard(tvar, false)
		}
	case DirTaskwait:
		e.put("omp.Taskwait(", lw.threadOrCurrent(n), ")")
	case DirTaskyield:
		// A task scheduling point: the thread may pick up another ready
		// task before resuming.
		e.put("omp.Taskyield(", lw.threadOrCurrent(n), ")")
	case DirThreadPrivate:
		// The pragma goes; threadPrivate rewrote the declarations.
	case DirTask:
		lw.genTask(n)
	case DirTaskloop:
		lw.genTaskloop(n)
	case DirCancel, DirCancellationPoint:
		lw.genCancel(n)
	case DirTile, DirUnroll:
		if nest := lw.transform(n); nest != nil {
			lw.loopText(n, nest)
		}
	default:
		lw.fail(n, "no generator for directive")
	}
}

func (lw *lowerer) threadOrCurrent(n *node) string {
	if tvar := lw.threadVar(n); tvar != "" {
		return tvar
	}
	return "omp.Current()"
}

// cancelGuard writes the branch-out guard emitted after a barrier when the
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
func (lw *lowerer) cancelGuard(tvar string, orphan bool) {
	if !orphan && lw.cancels {
		lw.e.put("if omp.CancellationPoint(", tvar, ", omp.CancelParallel) {\nreturn\n}\n")
	}
}

// shadowDecls emits the private/firstprivate lowering: a same-name local
// copy inside the construct. Both clauses copy — private's initial value is
// unspecified by OpenMP, so initialising it is permitted — and the explicit
// discard keeps Go's unused-variable rule satisfied, the exact challenge
// the paper reports for Zig ("all unused … variables … must be explicitly
// discarded").
// The copies follow kinds, each clause's variables in the order written; a
// variable is copied once.
func shadowDecls(e *emitter, c *Clauses, kinds ...VarClause) {
	for i, k := range kinds {
	next:
		for j, v := range c.Vars {
			if v.Clause != k {
				continue
			}
			for m, w := range c.Vars {
				if w.Name == v.Name && (w.Clause == k && m < j || slices.Contains(kinds[:i], w.Clause)) {
					continue next
				}
			}
			e.put(v.Name, " := ", v.Name, "\n_ = ", v.Name, "\n")
		}
	}
}

// checkDefaultNone enforces default(none): every free variable assigned in
// the body must be covered by a data-sharing clause. The clauses are the
// pragma's as written: the parallel half of a `parallel for` carries the
// default, the loop half the reductions and lastprivates that cover the
// variables.
func (lw *lowerer) checkDefaultNone(n *node, body ast.Node, exempt ...string) bool {
	if n.d.Clauses.Default != DefaultNone {
		return true
	}
	c := &n.pragma.Clauses
	listed := map[string]bool{}
	for _, v := range c.Vars {
		listed[v.Name] = true
	}
	for _, v := range exempt {
		listed[v] = true
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
// shared-variable group. A region-level reduction takes a pointer to the
// variable before the fork and folds each thread's copy into it with
// omp.Reduce at the end of the body.
func (lw *lowerer) genParallel(n *node) {
	c := &n.d.Clauses
	defer lw.unbind(lw.bindThread(n, "__omp_t"))
	var body body
	if n.pragma.Kind != DirParallelFor {
		var ok bool
		if body, ok = lw.block(n, "a parallel region"); !ok {
			return
		}
	} else if _, ok := n.stmt.(*ast.ForStmt); !ok {
		lw.fail(n, "%v", errNotFor)
		return
	} else if hasEscapingReturn(n.stmt) {
		lw.failReturn(n, "a parallel region")
		return
	} else if !lw.checkDefaultNone(n, n.stmt) {
		return
	} else {
		body.sub, body.orig = n.Subdirectives[0], lw.indentOf(n.start)
	}

	// Each reduction variable is reached through a pointer taken before
	// the fork; inside the region, a thread-local copy shadows it,
	// initialised to the operator's identity as the standard requires
	// (Section III-B1), and is folded into it at the end of the body.
	reductions := func(f func(v string, op ReduceOp)) {
		for _, r := range c.Reductions {
			for _, v := range r.Vars {
				f(v, r.Op)
			}
		}
	}
	e := lw.e
	e.code("{\n")
	reductions(func(v string, _ ReduceOp) { e.put(redPrefix, v, " := &", v, "\n") })
	e.code("omp.Parallel(func(__omp_t *omp.Thread) {\n")
	shadowDecls(e, c, VarPrivate, VarFirstPrivate)
	reductions(func(v string, op ReduceOp) {
		e.put(v, " := ")
		identity(e, op, v)
		e.put("\n_ = ", v, "\n")
	})
	lw.user(body)
	e.code("\n")
	reductions(func(v string, op ReduceOp) { reduceCall(e, op, "__omp_t", redPrefix, v, v) })
	e.code("}, ")
	// The options are arguments of a call of several: gofmt's depth 2.
	if c.NumThreads != "" {
		e.code("omp.NumThreads(")
		lw.clause(c.NumThreads, 2)
		e.code("), ")
	}
	if c.If != "" {
		e.code("omp.If(")
		lw.clause(c.If, 2)
		e.code("), ")
	}
	lw.loc(n, "parallel")
	e.code(")\n}")
}

// redPrefix names what stands for a reduction variable: the pointer to it
// a region takes before the fork, and a loop's per-thread partial.
const redPrefix = "__omp_red_"

// identity writes the initialiser of a reduction variable's per-thread
// copy: the operator's identity, typed like v. It takes v's address, not
// its value (before the copy's scope begins, so v is the shared variable):
// reading v would race with a thread still writing it.
func identity(e *emitter, op ReduceOp, v string) {
	switch op {
	case RedLogicalAnd:
		e.code("true")
	case RedLogicalOr:
		e.code("false")
	default:
		e.put("omp.ReduceIdentity(", op.RuntimeName(), ", &", v, ")")
	}
}

// reduceCall writes the fold of a reduction variable on a line of its own:
// thread tvar's partial local into the shared variable at ptr+v, at the
// reduction's barrier.
func reduceCall(e *emitter, op ReduceOp, tvar, ptr, v, local string) {
	fn := "omp.Reduce("
	if op == RedLogicalAnd || op == RedLogicalOr {
		fn = "omp.ReduceBool("
	}
	e.put(fn, tvar, ", ", op.RuntimeName(), ", ", ptr, v, ", ", local, ")\n")
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
			out = append(out, splice{off: off, end: off + len(v), text: pair[1]})
			lw.edited(off, off)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].off < out[j].off })
	return out, true
}

// clauseNaming finds, among subs and everything below them, a directive
// with v in a data-sharing or depend clause (or, if asked, copyprivate).
func clauseNaming(subs []*node, v string, copyPrivate bool) *node {
	for _, s := range subs {
		if namesVar(&s.d.Clauses, v, copyPrivate) {
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

// namesVar reports whether c names v in a private, firstprivate, lastprivate,
// reduction or depend clause, or, if asked, in copyprivate.
func namesVar(c *Clauses, v string, copyPrivate bool) bool {
	r := c.rare()
	if copyPrivate && slices.Contains(r.CopyPrivate, v) {
		return true
	}
	for _, x := range c.Vars {
		if x.Name == v && x.Clause != VarShared {
			return true
		}
	}
	for _, red := range c.Reductions {
		if slices.Contains(red.Vars, v) {
			return true
		}
	}
	for _, d := range r.Depends {
		if slices.Contains(d.Vars, v) {
			return true
		}
	}
	return false
}

// genFor lowers `//omp for`: bounds, increment and comparison operator are
// lifted from the for-statement header (Section III-B2), the iteration
// space is normalised to a trip count, and the body runs in a plain loop
// over the thread's chunks, omp.ForStart/omp.ForNext, in the function the
// construct sits in — the runtime's scheduling calls around the user's own
// loop. Reduction and lastprivate variables are renamed to per-thread locals
// inside the body and folded back after the loop: a reduction by omp.Reduce,
// whose barrier is the loop's. A reducing loop with nowait still takes that
// barrier, which conforms: every thread of the team meets the loop.
func (lw *lowerer) genFor(n *node) {
	c := &n.d.Clauses
	depth := max(c.Collapse, 1)
	nest, err := lw.loops(n, depth)
	if err != nil {
		lw.fail(n, "%v", err)
		return
	}
	hs := nest.hs[:depth]
	// The body is no function of its own: a branch out of it would skip
	// the thread's detach from the loop, its barrier or its reduction.
	if err := checkTransformBody(nest.body, "a worksharing loop", false, false); err != nil {
		lw.fail(n, "%v", err)
		return
	}
	if !lw.checkDefaultNone(n, nest.body, nest.vars()...) {
		return
	}

	var renamed [][2]string
	for _, r := range c.Reductions {
		for _, v := range r.Vars {
			renamed = append(renamed, [2]string{v, redPrefix + v})
		}
	}
	for v := range c.Names(VarLastPrivate) {
		renamed = append(renamed, [2]string{v, "__omp_lp_" + v})
	}
	renames, ok := lw.loopRenames(n, nest, renamed)
	if !ok {
		return
	}
	reductions := func(f func(op ReduceOp, v, local string)) {
		i := 0
		for _, r := range c.Reductions {
			for _, v := range r.Vars {
				f(r.Op, v, renamed[i][1])
				i++
			}
		}
	}
	lastPrivates := renamed[len(renamed)-c.Count(VarLastPrivate):]
	tvar, bind, orphan := lw.team(n)
	body := lw.nestBody(nest)

	e := lw.e
	e.put("{\n", bind)
	// Bounds per nest level, evaluated once before any shadowing; a single
	// level's trip count is the loop's.
	for i, h := range hs {
		lw.bounds(i, h, len(hs) > 1)
	}
	// Suffix products for collapse index reconstruction.
	for i := 0; i < len(hs)-1; i++ {
		e.code("__omp_suf")
		e.num(int64(i))
		e.code(" := ")
		for j := i + 1; j < len(hs); j++ {
			if j > i+1 {
				e.code(" * ")
			}
			e.code("__omp_trip")
			e.num(int64(j))
		}
		e.code("\n")
	}
	if len(hs) > 1 {
		e.code("__omp_trip := __omp_trip0 * __omp_suf0\n")
	}
	shadowDecls(e, c, VarPrivate, VarFirstPrivate)
	reductions(func(op ReduceOp, v, local string) {
		e.put(local, " := ")
		identity(e, op, v)
		e.code("\n")
	})
	for _, p := range lastPrivates {
		e.put(p[1], " := ", p[0], "\n")
	}

	if slices.ContainsFunc(lw.pragmas, func(p *node) bool { return lw.chunkLoop(p) == n }) {
		// Go scopes labels to the function: the pragma's line tells loops
		// apart. A label sits one level out.
		e.depth--
		e.put("__omp_for", strconv.Itoa(n.line), ":\n")
		e.depth++
	}
	e.put("for __omp_clo, __omp_chi, __omp_ok := omp.ForStart(", tvar, ", __omp_trip")
	if c.HasSchedule {
		e.put(", omp.Schedule(", schedConst(c.Sched), ", ")
		e.num(c.Chunk)
		if c.SchedMod != SchedModNone {
			e.put(", ", c.SchedMod.RuntimeName())
		}
		e.code(")")
	}
	if c.Ordered {
		e.code(", omp.OrderedClause()")
	}
	e.code(", ")
	lw.loc(n, "for")
	e.put("); __omp_ok; __omp_clo, __omp_chi, __omp_ok = omp.ForNext(", tvar, ") {\n")
	if len(hs) == 1 {
		// The loop variable is computed once per chunk and stepped by the
		// inner loop's post statement, which a continue still runs.
		v := hs[0].Var
		e.put("for __omp_k, ", v, " := __omp_clo, omp.LoopVar(__omp_lb0, __omp_clo, __omp_st0); ")
		e.put("__omp_k < __omp_chi; __omp_k, ", v, " = __omp_k+1, omp.LoopVar(", v, ", 1, __omp_st0) {\n")
	} else {
		e.code("for __omp_k := __omp_clo; __omp_k < __omp_chi; __omp_k++ {\n__omp_r := __omp_k\n")
		for i, h := range hs {
			if i < len(hs)-1 {
				loopVar(e, h.Var, i, "__omp_r", i)
				e.code("__omp_r %= __omp_suf")
				e.num(int64(i))
				e.code("\n")
			} else {
				loopVar(e, h.Var, i, "__omp_r", -1)
			}
		}
	}
	nest.open(e, depth)
	saved := lw.renames
	lw.renames = mergeSplices(saved, renames)
	lw.user(body)
	lw.renames = saved
	nest.close(e, depth)
	e.code("\n}\n")
	for _, p := range lastPrivates {
		e.put("if __omp_chi == __omp_trip {\n", p[0], " = ", p[1], "\n}\n")
	}
	e.code("}\n")
	reductions(func(op ReduceOp, v, local string) { reduceCall(e, op, tvar, "&", v, local) })
	if !c.NoWait {
		if len(c.Reductions) == 0 {
			e.put("omp.Barrier(", tvar, ")\n")
		}
		lw.cancelGuard(tvar, orphan)
	}
	e.code("}")
}

// chunkLoop returns the worksharing loop whose chunk loop the cancellation
// directive n continues: the `for` n sits directly in (transformations
// aside), with no function literal of the user's in between. Otherwise n's
// guard returns from the generated closure or function literal it sits in.
func (lw *lowerer) chunkLoop(n *node) *node {
	if n.d.Kind != DirCancel && n.d.Kind != DirCancellationPoint {
		return nil
	}
	a := n.parent
	for a != nil && (a.d.kind() == DirTile || a.d.kind() == DirUnroll) {
		a = a.parent
	}
	if a == nil || a.d.kind() != DirFor {
		return nil
	}
	inLit := false
	ast.Inspect(a.stmt, func(x ast.Node) bool {
		if inLit || x == nil || lw.off(x.Pos()) > n.start || lw.off(x.End()) <= n.start {
			return false
		}
		_, inLit = x.(*ast.FuncLit)
		return !inLit
	})
	if inLit {
		a = nil
	}
	return a
}

// bounds binds nest level i's lower bound as written, so that it keeps the
// loop variable's type (`0` stays int, `int64(0)` int64, as `i := lb`
// would have them; for `i = lb` the bound is assigned to a copy of i, which
// takes i's type and keeps i used), its step as an int64 (a descending loop
// over an unsigned variable steps by a negative amount), and its trip
// count, an int64, as trip. Each is evaluated once, before any shadowing.
func (lw *lowerer) bounds(i int, h *loopHeader, numbered bool) {
	e, n := lw.e, int64(i)
	e.code("__omp_lb")
	e.num(n)
	if h.Assign {
		e.put(" := ", h.Var, "\n__omp_lb")
		e.num(n)
		e.code(" = ")
	} else {
		e.code(" := ")
	}
	lw.expr(h.LB, 1)
	e.code("\n__omp_st")
	e.num(n)
	e.code(" := int64(")
	lw.expr(h.Step, 1)
	e.code(")\n__omp_trip")
	if numbered {
		e.num(n)
	}
	e.code(" := omp.TripCount(__omp_lb")
	e.num(n)
	e.code(", ")
	lw.expr(h.UB, 2)
	e.code(", __omp_st")
	e.num(n)
	e.put(", ", strconv.FormatBool(h.Inclusive), ")\n")
}

// loopVar declares the user's loop variable v of level i at the logical
// iteration k — k/__omp_suf<div> when div is not negative — in the type of
// the level's lower bound.
func loopVar(e *emitter, v string, i int, k string, div int) {
	e.put(v, " := omp.LoopVar(__omp_lb")
	e.num(int64(i))
	e.put(", ", k)
	if div >= 0 {
		e.code("/__omp_suf")
		e.num(int64(div))
	}
	e.code(", __omp_st")
	e.num(int64(i))
	e.put(")\n_ = ", v, "\n")
}

// --------------------------------------------------------------- sections

// genSections lowers `//omp sections` over a block whose top-level
// statement groups are delimited by `//omp section` pragmas: one closure
// per section node of the tree.
func (lw *lowerer) genSections(n *node) {
	c := &n.d.Clauses
	blk, ok := n.stmt.(*ast.BlockStmt)
	if !ok || n.inner != nil {
		lw.fail(n, "directive must immediately precede a { … } block")
		return
	}
	if hasEscapingReturn(blk) {
		lw.failReturn(n, "sections")
		return
	}
	tvar, bind, orphan := lw.team(n)

	e := lw.e
	e.put("{\n", bind, "omp.Sections(", tvar, ", []func(){\n")
	orig := lw.indentOf(lw.off(blk.Lbrace)) + 1
	for _, sec := range n.Subdirectives {
		sec.done = true
		e.code("func() {\n")
		shadowDecls(e, c, VarPrivate, VarFirstPrivate)
		lw.user(body{from: sec.start, to: sec.end, cur: sec, orig: orig})
		e.code("\n},\n")
	}
	e.code("}")
	if c.NoWait {
		e.code(", omp.NoWait()")
	}
	e.code(", ")
	lw.loc(n, "sections")
	e.code(")\n")
	if !c.NoWait {
		lw.cancelGuard(tvar, orphan) // the construct's implicit barrier is a cancellation point
	}
	e.code("}")
}

// ------------------------------------------------- single/master/critical

func (lw *lowerer) genSingle(n *node) {
	c := &n.d.Clauses
	body, ok := lw.block(n, "a single block")
	if !ok {
		return
	}
	tvar, bind, orphan := lw.team(n)

	e := lw.e
	e.put("{\n", bind)
	if cp := c.rare().CopyPrivate; len(cp) == 1 {
		v := cp[0]
		e.put("if ", tvar, ".Single() {\n")
		shadowDecls(e, c, VarPrivate, VarFirstPrivate)
		lw.user(body)
		e.put("\nomp.CopyPrivatePublish(", tvar, ", ")
		lw.clause(v, 2)
		e.put(")\n}\nomp.Barrier(", tvar, ")\nomp.CopyPrivateAssign(", tvar, ", &")
		lw.clause(v, 2)
		e.code(")\n")
		if !c.NoWait {
			e.put("omp.Barrier(", tvar, ")\n")
		}
	} else {
		e.put("omp.Single(", tvar, ", func() {\n")
		shadowDecls(e, c, VarPrivate, VarFirstPrivate)
		lw.user(body)
		e.code("\n}")
		if c.NoWait {
			e.code(", omp.NoWait()")
		}
		e.code(")\n")
	}
	if !c.NoWait {
		lw.cancelGuard(tvar, orphan) // the closing barrier is a cancellation point
	}
	e.code("}")
	if len(c.rare().CopyPrivate) > 1 { // after the body, whose diagnostics come first
		lw.fail(n, "copyprivate supports a single variable in this implementation")
	}
}

// genWrapped lowers the constructs that run their block under one runtime
// call taking the thread and a niladic closure: master, ordered, taskgroup.
// A non-empty region is passed in an omp.Loc after the closure.
func (lw *lowerer) genWrapped(n *node, what, call, region string) {
	body, ok := lw.block(n, what)
	if !ok {
		return
	}
	tvar, bind, _ := lw.team(n)
	e := lw.e
	e.put("{\n", bind, call, "(", tvar, ", func() {\n")
	lw.user(body)
	e.code("\n}")
	if region != "" {
		e.code(", ")
		lw.loc(n, region)
	}
	e.code(")\n}")
}

// genAtomic lowers `//omp atomic` to the typed helpers of
// omp/codegen_support.go on the updated variable's address, the Go
// compiler inferring its type. `x++`, `x--` and `x op= e` for + - & | are
// one helper call, e evaluated once: a native atomic instruction for an
// integer, the CAS loop for a float. Any other operator, and `x = expr`,
// are the paper's Listing 6 loop written out: load x, evaluate the new
// value with the loaded value in place of x — so a float sum associates as
// written — and compare-and-swap, again if another thread got in between,
// evaluating expr once per attempt. x must be addressable and numeric.
// Comments written inside the statement go on lines of their own above
// the code that replaces it.
func (lw *lowerer) genAtomic(n *node) {
	var x, val ast.Expr // the updated variable; its new value in the loop
	helper := ""
	switch s := n.stmt.(type) {
	case *ast.IncDecStmt:
		x, val, helper = s.X, intLit(1), "omp.AtomicAdd"
		if s.Tok == token.DEC {
			helper = "omp.AtomicSub"
		}
	case *ast.AssignStmt:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 || s.Tok == token.DEFINE {
			break
		}
		x, val = s.Lhs[0], s.Rhs[0]
		switch s.Tok {
		case token.ADD_ASSIGN:
			helper = "omp.AtomicAdd"
		case token.SUB_ASSIGN:
			helper = "omp.AtomicSub"
		case token.AND_ASSIGN:
			helper = "omp.AtomicAnd"
		case token.OR_ASSIGN:
			helper = "omp.AtomicOr"
		case token.ASSIGN:
			val = withLoaded(val, types.ExprString(x))
		default: // op= for the other operators: the token order is go/token's
			val = binary(ident("__omp_x"), s.Tok-token.ADD_ASSIGN+token.ADD, val)
		}
	}
	if x == nil || n.inner != nil {
		lw.fail(n, "directive must immediately precede an update statement: x++, x--, x op= expr or x = expr")
		return
	}
	var addr ast.Expr = &ast.UnaryExpr{Op: token.AND, X: x}
	if star, ok := x.(*ast.StarExpr); ok {
		addr = star.X
	}
	for c := range lw.comments(lw.off(n.stmt.Pos()), lw.off(n.stmt.End())) {
		lw.e.code(c.Text + "\n") // the tree printed below carries no comments
	}
	if helper != "" {
		lw.expr(call(helper, addr, val), 1)
		return
	}
	cas := &ast.UnaryExpr{Op: token.NOT, X: call("omp.AtomicCAS", ident("__omp_p"), &ast.UnaryExpr{Op: token.AND, X: ident("__omp_x")}, val)}
	lw.e.code("{\n__omp_p := ")
	lw.expr(addr, 1)
	lw.e.code("\n__omp_x := omp.AtomicLoad(__omp_p)\nfor ")
	lw.expr(cas, 1)
	lw.e.code(" {\n}\n}")
}

// withLoaded returns e with every occurrence of the atomic's target, whose
// canonical text is x, replaced by the loaded value __omp_x; only the nodes
// on the way to one are copied.
func withLoaded(e ast.Expr, x string) ast.Expr {
	if types.ExprString(e) == x {
		return ident("__omp_x")
	}
	switch t := e.(type) {
	case *ast.ParenExpr:
		c := *t
		c.X = withLoaded(t.X, x)
		return &c
	case *ast.UnaryExpr:
		c := *t
		c.X = withLoaded(t.X, x)
		return &c
	case *ast.StarExpr:
		c := *t
		c.X = withLoaded(t.X, x)
		return &c
	case *ast.BinaryExpr:
		c := *t
		c.X, c.Y = withLoaded(t.X, x), withLoaded(t.Y, x)
		return &c
	case *ast.SelectorExpr:
		c := *t
		c.X = withLoaded(t.X, x)
		return &c
	case *ast.IndexExpr:
		c := *t
		c.X, c.Index = withLoaded(t.X, x), withLoaded(t.Index, x)
		return &c
	case *ast.CallExpr:
		c := *t
		c.Args = make([]ast.Expr, len(t.Args))
		for i, a := range t.Args {
			c.Args[i] = withLoaded(a, x)
		}
		return &c
	}
	return e
}

// ---------------------------------------------------------------- tasking

// taskOptions writes the clause options shared by task and taskloop.
// Depend items lower to omp.DependIn(&v)-style options: the variable's
// address is the dependence address.
func (lw *lowerer) taskOptions(n *node, region string) {
	c, r, e := &n.d.Clauses, n.d.Clauses.rare(), lw.e
	if c.If != "" {
		e.code(", omp.If(")
		lw.clause(c.If, 2)
		e.code(")")
	}
	if r.Final != "" {
		e.code(", omp.Final(")
		lw.clause(r.Final, 2)
		e.code(")")
	}
	if r.Untied {
		e.code(", omp.Untied()")
	}
	if r.Mergeable {
		e.code(", omp.Mergeable()")
	}
	if r.Grainsize > 0 {
		e.code(", omp.Grainsize(")
		e.num(r.Grainsize)
		e.code(")")
	}
	if r.NumTasks > 0 {
		e.code(", omp.NumTasks(")
		e.num(r.NumTasks)
		e.code(")")
	}
	if r.NoGroup {
		e.code(", omp.NoGroup()")
	}
	if r.Priority != "" {
		e.code(", omp.Priority(")
		lw.clause(r.Priority, 2)
		e.code(")")
	}
	for _, dc := range r.Depends {
		for _, v := range dc.Vars {
			e.put(", ", dc.Mode.RuntimeName(), "(&", v, ")")
		}
	}
	e.code(", ")
	lw.loc(n, region)
}

// genTask lowers `//omp task` over the following block into an omp.Task call
// deferring the outlined body. Firstprivate values are copied into same-name
// locals outside the closure — capture by copy at task *creation* time, as
// the standard requires — while private variables shadow inside the deferred
// body. The closure receives the *executing* thread as a shadowing parameter
// so that nested directives inside the task body bind to whichever thread
// steals the task, not to its creator.
func (lw *lowerer) genTask(n *node) {
	c := &n.d.Clauses
	tvar, bind, _ := lw.team(n)
	defer lw.unbind(lw.bindThread(n, tvar))
	body, ok := lw.block(n, "a task")
	if !ok {
		return
	}
	e := lw.e
	e.put("{\n", bind)
	shadowDecls(e, c, VarFirstPrivate) // creation-time copies the closure captures
	e.put("omp.Task(", tvar, ", func(", tvar, " *omp.Thread) {\n")
	shadowDecls(e, c, VarPrivate)
	lw.user(body)
	e.code("\n}")
	lw.taskOptions(n, "task")
	e.code(")\n}")
}

// genTaskloop lowers `//omp taskloop`: the canonical for statement is
// normalised to a trip count exactly as genFor does, but the iteration space
// is carved into explicit tasks by grainsize/num_tasks instead of being
// dispatched to the team — the second, chunk-granular lowering strategy for
// loops. The chunk closure receives the executing thread (tasks migrate
// between threads), and unless nogroup is present the encountering thread
// waits for all chunks under an implicit taskgroup.
func (lw *lowerer) genTaskloop(n *node) {
	c := &n.d.Clauses
	nest, err := lw.loops(n, 1)
	if err != nil {
		lw.fail(n, "%v", err)
		return
	}
	h := nest.hs[0]
	if hasEscapingReturn(nest.body) {
		lw.fail(n, "return inside a taskloop is not allowed")
		return
	}
	if !lw.checkDefaultNone(n, nest.body, nest.vars()...) {
		return
	}
	tvar, bind, _ := lw.team(n)
	defer lw.unbind(lw.bindThread(n, tvar))
	body := lw.nestBody(nest)

	e := lw.e
	e.put("{\n", bind)
	lw.bounds(0, h, false)
	shadowDecls(e, c, VarFirstPrivate) // creation-time snapshot
	e.put("omp.Taskloop(", tvar, ", __omp_trip, func(", tvar, " *omp.Thread, __omp_clo, __omp_chi int64) {\n")
	// Per-task copies: each chunk task privatises from the snapshot.
	shadowDecls(e, c, VarPrivate, VarFirstPrivate)
	e.code("for __omp_k := __omp_clo; __omp_k < __omp_chi; __omp_k++ {\n")
	loopVar(e, h.Var, 0, "__omp_k", -1)
	nest.open(e, 1)
	lw.user(body)
	nest.close(e, 1)
	e.code("\n}\n}")
	lw.taskOptions(n, "taskloop")
	e.code(")\n}")
}

// ----------------------------------------------------------- cancellation

// genCancel lowers the standalone `//omp cancel {parallel|for|taskgroup}`
// and `//omp cancellation point …` directives. omp.Cancel activates
// cancellation and reports whether the encountering thread must branch to
// the end of the construct, which the generated guard performs with a bare
// return — every outlined construct body (parallel region, task) is a
// niladic function, so the return exits exactly the innermost construct —
// or, directly in a worksharing loop's body, by continuing the loop over
// the thread's chunks (chunkLoop), whose next omp.ForNext detaches the
// thread from the cancelled loop. An if clause gates
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
func (lw *lowerer) genCancel(n *node) {
	c, cancel := &n.d.Clauses, n.d.Clauses.rare().Cancel
	tvar := lw.threadVar(n)
	if tvar == "" {
		lw.fail(n, "%s %s outside a parallel region: no enclosing construct provides a thread context", n.d.Kind, cancel)
		return
	}
	point := call("omp.CancellationPoint", ident(tvar), ident(cancel.RuntimeName()))
	var cond ast.Expr = point
	if n.d.Kind == DirCancel {
		cond = call("omp.Cancel", ident(tvar), ident(cancel.RuntimeName()))
		if c.If != "" {
			cond = binary(paren(binary(paren(lw.clauseExpr(c.If)), token.LAND, cond)), token.LOR, point)
		}
	}
	lw.e.code("if ")
	p := lw.printer(true)
	if p.run(cond, 1); p.bad {
		kind := cancel.RuntimeName()
		p.buf = p.buf[:0]
		p.put("((", lw.rawClause(c.If), ") && omp.Cancel(", tvar, ", ", kind, ")) || omp.CancellationPoint(", tvar, ", ", kind, ")")
	}
	p.end()
	if loop := lw.chunkLoop(n); loop != nil {
		lw.e.put(" {\ncontinue __omp_for", strconv.Itoa(loop.line), "\n}")
		return
	}
	lw.e.code(" {\nreturn\n}")
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
		for _, v := range p.d.Clauses.rare().ThreadPrivateVars {
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

			from, to := lw.off(decl.Pos()), lw.off(decl.End())
			if lw.tf.Line(decl.Pos()) != lw.tf.Line(decl.End()) || lw.hasComment(from, to) {
				lw.reformat = true
			}
			lw.edited(from, from)
			typeText := string(lw.src[lw.off(spec.Type.Pos()):lw.off(spec.Type.End())])
			cell, initFn := "__omp_tp_"+v, "nil"
			if len(spec.Values) == 1 {
				val := spec.Values[0]
				initFn = closure("func() *"+typeText,
					fmt.Sprintf("var __omp_v %s = %s", typeText, lw.src[lw.off(val.Pos()):lw.off(val.End())]), "return &__omp_v")
			}
			e := &emitter{depth: lw.indentOf(from)}
			e.put("var ", cell, " = omp.NewThreadPrivate[", typeText, "](", initFn, ")")
			lw.reformat = lw.reformat || e.bad
			out = append(out, splice{off: from, end: to, text: string(e.out)})
			if lw.misused(v, from, to) {
				return lw.errf(p, "threadprivate variable %s is declared again or used as a type", v)
			}
			access := fmt.Sprintf("(*%s.Get(omp.Current()))", cell)
			for _, off := range identOffsets(lw.tf, lw.file, v) {
				if off < from || off >= to { // the declaration itself is being replaced
					text := access
					if lw.parenthesised(off, off+len(v)) {
						text = access[1 : len(access)-1] // gofmt keeps one pair
					}
					out = append(out, splice{off: off, end: off + len(v), text: text, thread: true})
					lw.edited(off, off)
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

// parenthesised reports whether src[from:to] is the whole of a parenthesised
// expression — not an argument list, which follows the function it calls,
// nor a type assertion's type.
func (u *unit) parenthesised(from, to int) bool {
	if from < 1 || to >= len(u.src) || u.src[from-1] != '(' || u.src[to] != ')' {
		return false
	}
	if from < 2 {
		return true
	}
	c := u.src[from-2]
	return !(c == ')' || c == ']' || c == '}' || c == '.' || c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= 0x80)
}

// misused reports whether name, outside src[from:to], is declared — as a
// variable or constant, a parameter, result, field or method, by := or
// range, or as an import name — or stands where only a type can: places
// where a threadprivate accessor would not parse.
func (u *unit) misused(name string, from, to int) bool {
	found := false
	check := func(ids ...*ast.Ident) {
		for _, id := range ids {
			if id != nil && id.Name == name && (u.off(id.Pos()) < from || u.off(id.Pos()) >= to) {
				found = true
			}
		}
	}
	typ := func(t ast.Expr) {
		for p, ok := t.(*ast.StarExpr); ok; p, ok = t.(*ast.StarExpr) {
			t = p.X
		}
		id, _ := ast.Unparen(t).(*ast.Ident)
		check(id)
	}
	ast.Inspect(u.file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ValueSpec:
			check(x.Names...)
			typ(x.Type)
		case *ast.Field:
			check(x.Names...)
			typ(x.Type)
		case *ast.TypeSpec:
			typ(x.Type)
		case *ast.CompositeLit:
			typ(x.Type)
		case *ast.TypeAssertExpr:
			typ(x.Type)
		case *ast.ArrayType:
			typ(x.Elt)
		case *ast.MapType:
			typ(x.Value)
		case *ast.ChanType:
			typ(x.Value)
		case *ast.ImportSpec:
			check(x.Name)
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				for _, e := range x.Lhs {
					id, _ := e.(*ast.Ident)
					check(id)
				}
			}
		case *ast.RangeStmt:
			if x.Tok == token.DEFINE {
				k, _ := x.Key.(*ast.Ident)
				v, _ := x.Value.(*ast.Ident)
				check(k, v)
			}
		}
		return !found
	})
	return found
}
