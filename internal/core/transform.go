package core

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strconv"
)

// Loop-transformation engine: the OpenMP 5.1 tile and unroll directives
// ("Design and Use of Loop-Transformation Pragmas" / "A Proposal for
// Loop-Transformation Pragmas", Kruse & Finkel). Unlike every other
// directive in this preprocessor, a transformation does not lower to
// runtime calls — it rewrites the annotated loop nest into a restructured
// nest of plain Go loops, and a worksharing directive stacked above the
// transformation applies to the *generated* loops, exactly the OpenMP 5.1
// "directive applies to the generated loop" composition rule:
//
//	//omp parallel for collapse(2)
//	//omp tile sizes(64,64)
//	for i := 0; i < n; i++ {
//		for j := 0; j < m; j++ { … }
//
// tiles first, then the parallel for distributes the 2-deep tile grid: in
// the directive tree the tile is the for's inner, and hands it the grid
// loops as IR (loops) rather than as text to parse again.
//
// The engine works on a loop-nest IR lifted from the ast.ForStmt headers
// (loopNest, generalising extractCollapseNest): every level is normalised
// to a zero-based logical iteration k ∈ [0, trip) with var = lb + k*step,
// which makes strip-mining independent of direction, stride and
// inclusivity, and makes the fringe handling for non-divisible trip counts
// a single min() against the level's trip count.

// Generated-loop naming. Tile-grid and point loops use fixed prefixes; the
// grid loops are deliberately canonical worksharing shapes (simple init,
// `<` comparison, `+=` step) so a directive stacked above can take them.
const (
	tileGridVar  = "__omp_tile" // tile-grid (inter-tile) loop variables
	tilePointVar = "__omp_pt"   // intra-tile point loop variables
	tileHiVar    = "__omp_hi"   // hoisted point-loop upper bounds
	tileLBVar    = "__omp_tlb"  // lower bounds of assignment-form levels
	unrollLBVar  = "__omp_ulb"  // the unrolled level's, likewise
)

// Unroll heuristics for the bare `unroll` directive (and bare `partial`):
// a constant trip count up to fullUnrollTrip expands fully; everything
// else partially unrolls by defaultUnrollFactor — enough to expose
// instruction-level parallelism without bloating the generated source.
const (
	fullUnrollTrip      = 16
	defaultUnrollFactor = 4
	// maxFullUnrollTrip guards `unroll full` against pathological
	// expansion: the body is duplicated once per iteration.
	maxFullUnrollTrip = MaxUnrollFactor
)

// loopNest is the transformation IR: the canonical levels a directive may
// take (outermost first) around the user's body. A nest is either lifted
// from the source, or generated by a tile — then hs are its tile-grid
// loops, and pre/post are what it generated between them and the body.
type loopNest struct {
	hs   []*loopHeader
	body *ast.BlockStmt // the user's innermost body: what checks and renames inspect
	// owner is the node whose Subdirectives lie inside body: the innermost
	// directive of the stack over the loop.
	owner *node
	// pre and post surround the body's text inside the last level of a
	// generated nest (point loops and loop-variable assignments; their
	// closing braces); declared are the user's loop variables pre declares.
	pre, post string
	declared  []string
}

func (n *loopNest) generated() bool { return n.hs[0].Line != "" }

// vars returns the loop variables the nest declares for its body.
func (n *loopNest) vars() []string {
	out := append([]string(nil), n.declared...)
	for _, h := range n.hs {
		out = append(out, h.Var)
	}
	return out
}

// open writes what comes between a directive consuming depth levels of the
// nest and the user's body, which it runs per iteration: for a generated
// nest, the levels it leaves in place plus pre. close writes what follows
// the body: post and the braces closing those levels.
func (n *loopNest) open(w stringWriter, depth int) {
	if n.generated() {
		w.WriteString("\n")
		n.levels(w, depth)
	}
}

func (n *loopNest) close(w stringWriter, depth int) {
	if n.generated() {
		w.WriteString(n.post)
		w.WriteString("\n")
		braces(w, 2*len(n.hs)-depth)
	}
}

// levels writes the nest's levels from depth on, and pre.
func (n *loopNest) levels(w stringWriter, depth int) {
	for _, h := range n.hs[depth:] {
		w.WriteString(h.Line)
	}
	w.WriteString(n.pre)
}

// braces writes k closing braces, each on a line of its own.
func braces(w stringWriter, k int) {
	for range k {
		w.WriteString("}\n")
	}
}

// stringWriter is where generated text goes: the emitter, or a printer
// building text that is kept.
type stringWriter interface{ WriteString(string) }

// nestBody returns the user's body of nest, whose nested directives are
// lowered as it is written.
func (lw *lowerer) nestBody(nest *loopNest) body {
	defer lw.leave(lw.enter(nest.owner))
	return lw.blockText(nest.body)
}

var errNotFor = errors.New("directive must immediately precede a for statement")

// loops returns the canonical nest, at least depth levels deep, that n
// applies to: the loops generated by the transformation stacked under n —
// handed over as IR, never printed and re-parsed — or else n's own for
// statement, which must be perfectly nested and rectangular to that depth.
func (lw *lowerer) loops(n *node, depth int) (*loopNest, error) {
	owner := n
	if n.inner != nil {
		nest := lw.transform(n.inner)
		if nest == nil {
			return nil, errNotFor // an unrolled loop is a block (or the inner directive failed)
		}
		if nest.generated() {
			// The point loops are deliberately not canonical (tuple init
			// hoisting the fringe bound), so a depth reaching past the
			// grid is rejected at the first level beyond it.
			if depth > len(nest.hs) {
				return nil, fmt.Errorf("collapse level %d: worksharing loop must initialise exactly one loop variable", len(nest.hs)+1)
			}
			return nest, nil
		}
		owner = nest.owner // an identity unroll: the loop is still the user's
	}
	f, ok := n.stmt.(*ast.ForStmt)
	if !ok {
		return nil, errNotFor
	}
	defer lw.leave(lw.enter(owner))
	hs, err := lw.extractCollapseNest(f, depth)
	if err != nil {
		return nil, err
	}
	return &loopNest{hs: hs, body: hs[depth-1].Body, owner: owner}, nil
}

// tripExpr builds a level's trip count as a host int expression, for a
// tile's grid level, which a directive stacked above may take as its upper
// bound; trip prints the same expression without building it.
func tripExpr(h *loopHeader) ast.Expr {
	var step ast.Expr = call("int64", h.Step)
	if v, ok := constInt(h.Step); ok {
		step = intLit(v)
	}
	return call("int", call("omp.TripCount", h.LB, h.UB, step, ident(strconv.FormatBool(h.Inclusive))))
}

// trip writes a level's trip count as a host int expression at depth:
// int(omp.TripCount(lb, ub, step, inclusive)). The bounds are
// loop-invariant by the canonical form, so re-evaluating the expression
// where needed is sound; generated code hoists it wherever a hot path
// would otherwise re-evaluate per iteration.
func (p *exprPrinter) trip(h *loopHeader, depth int) {
	// int(…) has one argument, its arguments stay at depth; TripCount's
	// four are one deeper.
	p.WriteString("int(omp.TripCount(")
	p.expr1(h.LB, token.LowestPrec, depth+1)
	p.WriteString(", ")
	p.expr1(h.UB, token.LowestPrec, depth+1)
	p.WriteString(", ")
	p.step(h, depth+1)
	p.WriteString(", ")
	p.WriteString(strconv.FormatBool(h.Inclusive))
	p.WriteString("))")
}

// step writes a level's step as an int64 argument at depth: a constant as
// a literal, anything else converted.
func (p *exprPrinter) step(h *loopHeader, depth int) {
	if v, ok := constInt(h.Step); ok {
		p.num(v)
		return
	}
	p.WriteString("int64(")
	p.expr1(h.Step, token.LowestPrec, depth)
	p.WriteByte(')')
}

// pointAssign writes the reconstruction of a level's original loop
// variable from the logical iteration k+plus, an int, in the type of the
// lower bound lb (h.LB when lb is ""): v := omp.LoopVar(lb, int64(k+plus),
// step). The explicit discard keeps Go's unused-variable rule satisfied
// when the body ignores the variable.
func (p *exprPrinter) pointAssign(h *loopHeader, lb, k string, plus int64) {
	// A call of three arguments: they sit at gofmt's depth 2, where a sum
	// is written without blanks.
	p.put(h.Var, " := omp.LoopVar(")
	if lb == "" {
		p.expr1(h.LB, token.LowestPrec, 2)
	} else {
		p.WriteString(lb)
	}
	p.put(", int64(", k)
	if plus > 0 {
		p.WriteByte('+')
		p.num(plus)
	}
	p.WriteString("), ")
	p.step(h, 2)
	p.put(")\n_ = ", h.Var, "\n")
}

// typedBound writes, for an assignment-form level (`for i = lb; …`), the
// binding of name to the level's lower bound in the type of the declared
// variable: name := i, then name = lb. It also keeps i used, which the
// loop no longer assigns.
func (p *exprPrinter) typedBound(h *loopHeader, name string) {
	p.put(name, " := ", h.Var, "\n", name, " = ")
	p.expr1(h.LB, token.LowestPrec, 1)
	p.WriteByte('\n')
}

// transform applies the tile or unroll directive n. A tile returns its
// generated nest as IR, for a directive stacked above to consume or for gen
// to print; an unroll writes the block it expands the loop into, or — for
// partial(1), the identity — returns the loop's own nest.
func (lw *lowerer) transform(n *node) *loopNest {
	defer lw.leave(lw.enter(n))
	n.done = true
	if n.d.Kind == DirTile {
		return lw.tile(n)
	}
	return lw.unroll(n)
}

// loopText writes the nest n generated and no directive consumed. A source
// nest is the identity unroll's: only the pragma goes. The text starts on
// the pragma's line and ends on the line of the last closing brace.
func (lw *lowerer) loopText(n *node, nest *loopNest) {
	if !nest.generated() {
		defer lw.leave(lw.enter(nest.owner))
		lw.render(nest.owner.cEnd, nest.owner.end)
		return
	}
	e := lw.e
	nest.levels(e, 0)
	lw.user(lw.nestBody(nest))
	e.put(nest.post, "\n")
	braces(e, 2*len(nest.hs)-1)
	e.code("}")
}

// checkTransformBody rejects statements that would change meaning under
// loop restructuring or worksharing; construct names the loop in its
// messages. The OpenMP canonical loop form forbids exiting the loop from
// inside (return, break, goto out, a labelled break or continue naming a
// statement outside the body); duplication (unroll) additionally forbids
// continue — which would skip the remaining unrolled copies, not the
// remaining loop — and labels, which Go scopes to the function and so cannot
// be duplicated. Tiling keeps one copy of the body inside a still-innermost
// point loop, and a worksharing loop one inside its chunk's loop, so continue
// binds equivalently and stays legal. Statements inside nested loops,
// switches and function literals bind locally and are exempt; inLoop says
// the body already sits inside a loop a tile generated.
func checkTransformBody(body ast.Node, construct string, duplicated, inLoop bool) error {
	var err error
	// Inspect gives pre-order calls plus a nil call after each node whose
	// children were visited; pushing one frame per descended node keeps an
	// ancestry summary without a second pass.
	type frame struct{ loop, sw bool }
	stack := append(make([]frame, 0, 16), frame{loop: inLoop})
	// labels are those the body declares: a break or continue naming one
	// that compiles is inside the statement it names.
	var labels []string
	inside := func(sw bool) bool { // a loop, or a switch too, encloses the node
		for _, f := range stack {
			if f.loop || sw && f.sw {
				return true
			}
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if err != nil {
			return false
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			return false // its control flow is self-contained
		case *ast.ReturnStmt:
			err = fmt.Errorf("return inside %s is not allowed (OpenMP forbids branching out of a canonical loop)", construct)
		case *ast.LabeledStmt:
			if duplicated {
				err = fmt.Errorf("label %s inside an unrolled loop body is not supported (Go labels are function-scoped and cannot be duplicated)", s.Label.Name)
			}
			labels = append(labels, s.Label.Name)
		case *ast.BranchStmt:
			switch {
			case s.Tok == token.GOTO:
				err = fmt.Errorf("goto inside %s is not allowed", construct)
			case s.Label != nil && !slices.Contains(labels, s.Label.Name):
				err = fmt.Errorf("%s %s inside %s is not allowed (OpenMP forbids branching out of a canonical loop)", s.Tok, s.Label.Name, construct)
			case s.Tok == token.BREAK && !inside(true):
				err = fmt.Errorf("break inside %s is not allowed (OpenMP forbids branching out of a canonical loop)", construct)
			case s.Tok == token.CONTINUE && duplicated && !inside(false):
				err = fmt.Errorf("continue inside an unrolled loop body is not supported (it would skip the remaining unrolled copies)")
			}
		}
		if err != nil {
			return false
		}
		fr := frame{}
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			fr.loop = true
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			fr.sw = true
		}
		stack = append(stack, fr)
		return true
	})
	return err
}

// --------------------------------------------------------------------- tile

// tile lowers `//omp tile sizes(t1,…,tk)`: the k-deep nest is strip-mined
// level by level and the strip loops interchanged outward, producing a
// 2k-deep nest — k tile-grid loops over k point loops — in which grid loop
// i advances by ti over level i's logical iteration space and point loop i
// covers its tile with an upper bound of min(origin+ti, tripi), the
// remainder ("fringe") tiles of non-divisible trip counts included. The
// grid loops are canonical worksharing headers, perfectly nested, so
// `parallel for collapse(k)` stacked above distributes tiles exactly as
// OpenMP 5.1 specifies; the point loops hoist their bounds into the init
// statement (tuple assignment), which keeps the hot path free of TripCount
// re-evaluation and — being non-rectangular by construction — makes a
// collapse reaching past the grid loops a diagnosed error rather than a
// silent miscompile.
func (lw *lowerer) tile(n *node) *loopNest {
	sizes := n.d.Clauses.rare().Sizes
	k := len(sizes)
	src, err := lw.loops(n, k)
	if err == errNotFor {
		lw.fail(n, "%v", err)
		return nil
	} else if err != nil {
		lw.fail(n, "sizes arity %d must match a perfect rectangular loop nest: %v", k, err)
		return nil
	}
	if err := checkTransformBody(src.body, "a transformed loop", false, src.generated()); err != nil {
		lw.fail(n, "%v", err)
		return nil
	}
	lw.usesOmp = true
	out := &loopNest{body: src.body, owner: src.owner, declared: src.declared}
	p := lw.printer(false)
	defer p.done()
	for i, size := range sizes {
		h := src.hs[i]
		grid := tileGridVar + strconv.Itoa(i)
		// for __omp_tileI := 0; __omp_tileI < trip; __omp_tileI += size {
		// — the bound is a comparison's right operand (gofmt's depth 2).
		p.buf = p.buf[:0]
		p.put("for ", grid, " := 0; ", grid, " < ")
		p.trip(h, 2)
		p.put("; ", grid, " += ")
		p.num(size)
		p.WriteString(" {\n")
		out.hs = append(out.hs, &loopHeader{Var: grid, LB: intLit(0), UB: tripExpr(h), Step: paren(intLit(size)), Line: p.text()})
		out.declared = append(out.declared, h.Var)
	}
	p.buf = p.buf[:0]
	// Assignment-form levels bind their lower bounds typed like the
	// declared variables, once per tile.
	for i, h := range src.hs[:k] {
		if h.Assign {
			p.typedBound(h, tileLBVar+strconv.Itoa(i))
		}
	}
	for i, size := range sizes {
		// Point loops: cover one tile each, fringe-guarded by min against
		// the level trip count, bounds hoisted into the init (a two-value
		// assignment: depth 2, so min's two arguments sit at depth 3).
		n, grid := strconv.Itoa(i), out.hs[i].Var
		p.put("for ", tilePointVar, n, ", ", tileHiVar, n, " := ", grid, ", min(", grid, "+")
		p.num(size)
		p.WriteString(", ")
		p.trip(src.hs[i], 3)
		p.put("); ", tilePointVar, n, " < ", tileHiVar, n, "; ", tilePointVar, n, "++ {\n")
	}
	for i, h := range src.hs[:k] {
		lb := ""
		if h.Assign {
			lb = tileLBVar + strconv.Itoa(i)
		}
		p.pointAssign(h, lb, tilePointVar+strconv.Itoa(i), 0)
	}
	src.open(&p, k)
	out.pre = p.text()
	p.buf = p.buf[:0]
	src.close(&p, k)
	out.post = p.text()
	return out
}

// ------------------------------------------------------------------- unroll

// constInt reads a loop-header expression as a compile-time integer
// constant: an optionally parenthesised, optionally signed decimal literal —
// the only shapes extractLoopHeader builds for literal bounds.
func constInt(e ast.Expr) (int64, bool) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return constInt(x.X)
	case *ast.UnaryExpr:
		v, ok := constInt(x.X)
		switch x.Op {
		case token.SUB:
			return -v, ok
		case token.ADD:
			return v, ok
		}
	case *ast.BasicLit:
		if x.Kind == token.INT {
			v, err := strconv.ParseInt(x.Value, 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// constTrip returns the nest level's compile-time trip count, if every
// header expression is constant.
func constTrip(h *loopHeader) (int64, bool) {
	lb, ok1 := constInt(h.LB)
	ub, ok2 := constInt(h.UB)
	st, ok3 := constInt(h.Step)
	if !ok1 || !ok2 || !ok3 || st == 0 {
		return 0, false
	}
	if st > 0 {
		if h.Inclusive {
			ub++
		}
		if ub <= lb {
			return 0, true
		}
		return (ub - lb + st - 1) / st, true
	}
	if h.Inclusive {
		ub--
	}
	if ub >= lb {
		return 0, true
	}
	return (lb - ub + (-st) - 1) / (-st), true
}

// unroll lowers `//omp unroll [full | partial[(n)]]`. Full expansion
// requires compile-time-constant bounds and replaces the loop with one
// copy of the body per iteration, each in its own block with the loop
// variable bound to its literal value. Partial unrolling emits a main
// loop advancing by the factor with the body duplicated inside, followed
// by a scalar remainder loop covering trip%factor — correct for any trip
// count, divisible or not. The bare directive picks heuristically (full
// for short constant trips, otherwise partial by defaultUnrollFactor).
// Either way the loop structure is consumed, so unlike tile the generated
// code is a block: worksharing directives stack above tile, not unroll.
func (lw *lowerer) unroll(n *node) *loopNest {
	src, err := lw.loops(n, 1)
	if err != nil {
		lw.fail(n, "%v", err)
		return nil
	}
	h := src.hs[0]
	if err := checkTransformBody(src.body, "a transformed loop", true, src.generated()); err != nil {
		lw.fail(n, "%v", err)
		return nil
	}

	trip, tripConst := constTrip(h)
	r := n.d.Clauses.rare()
	spec, factor := r.Unroll, r.UnrollFactor
	if spec == UnrollNone { // bare unroll: the implementation chooses
		if tripConst && trip <= fullUnrollTrip {
			spec = UnrollFull
		} else {
			spec = UnrollPartial
		}
	}
	switch {
	case spec == UnrollFull && !tripConst:
		lw.fail(n, "unroll full requires compile-time-constant loop bounds (lower bound, upper bound and step must be integer literals)")
		return nil
	case spec == UnrollFull && trip > maxFullUnrollTrip:
		lw.fail(n, "unroll full would expand %d iterations (maximum %d); use partial instead", trip, maxFullUnrollTrip)
		return nil
	case spec != UnrollFull && factor == 1:
		return src // partial(1) is the identity transformation
	}
	// A worksharing loop in the body whose chunk loop a cancellation
	// directive continues carries a label, which Go cannot duplicate.
	for _, p := range lw.pragmas {
		if loop := lw.chunkLoop(p); loop != nil && loop.start > n.start && loop.start < n.end {
			lw.fail(p, "cancellation inside a worksharing loop inside an unrolled loop body is not supported (the loop's label would be duplicated)")
			return nil
		}
	}
	// Every copy of the body is the same text: lower it once.
	body := lw.materialize(lw.nestBody(src))
	defer lw.release(body.text)
	e := lw.e
	e.code("{\n")
	copyBody := func() {
		src.open(e, 1)
		lw.user(body)
		src.close(e, 1)
		e.code("\n}\n")
	}
	if spec == UnrollFull {
		lb, _ := constInt(h.LB)
		st, _ := constInt(h.Step)
		for k := int64(0); k < trip; k++ {
			// An assignment-form variable's copy takes its type from it.
			if h.Assign {
				e.put("{\n", h.Var, " := ", h.Var, "\n", h.Var, " = ")
			} else {
				e.put("{\n", h.Var, " := ")
			}
			e.num(lb + k*st)
			e.put("\n_ = ", h.Var, "\n")
			copyBody()
		}
	} else {
		if factor == 0 {
			factor = defaultUnrollFactor
		}
		lw.usesOmp = true
		p := lw.printer(false)
		lb := ""
		if h.Assign {
			lb = unrollLBVar
			p.typedBound(h, lb)
		}
		p.WriteString("__omp_ut := ")
		p.trip(h, 1)
		p.WriteString("\n__omp_um := __omp_ut - __omp_ut%")
		p.num(factor)
		p.WriteString("\nfor __omp_uk := 0; __omp_uk < __omp_um; __omp_uk += ")
		p.num(factor)
		p.WriteString(" {\n")
		p.end()
		for k := int64(0); k < factor; k++ {
			e.code("{\n")
			p = lw.printer(false)
			p.pointAssign(h, lb, "__omp_uk", k)
			p.end()
			copyBody()
		}
		// Scalar remainder loop: the trip%factor fringe iterations.
		e.code("}\nfor __omp_uk := __omp_um; __omp_uk < __omp_ut; __omp_uk++ {\n")
		p = lw.printer(false)
		p.pointAssign(h, lb, "__omp_uk", 0)
		p.end()
		copyBody()
	}
	e.code("}")
	return nil
}
