package core

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Variable analysis and rewriting (Section III-B3 of the paper). The
// preprocessor operates before type checking, so — like the paper — the
// analysis is purely syntactic: "the use of variables can be determined by
// comparing the values of their identifiers, where two identifiers in the
// same scope will always refer to the same entity as long as neither is
// preceded by a period". Zig lacks shadowing, which makes that rule exact;
// Go does not, so declarations that would shadow a rewritten variable are
// rejected with an error rather than silently miscompiled (see
// checkNoShadowing).

// identOffsets returns the byte offsets (within the file) of every
// occurrence of an identifier spelled name inside root, excluding positions
// where the spelling does not denote the variable:
//
//   - the selector of a field/method access (x.name — "preceded by a
//     period", the paper's rule)
//   - keys of composite-literal key:value pairs (struct field names)
//   - declared names of functions, types and labels
func identOffsets(tf *token.File, root ast.Node, name string) []int {
	var offs []int
	skip := map[*ast.Ident]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			skip[x.Sel] = true
		case *ast.KeyValueExpr:
			if k, ok := x.Key.(*ast.Ident); ok {
				skip[k] = true
			}
		case *ast.FuncDecl:
			skip[x.Name] = true
		case *ast.TypeSpec:
			skip[x.Name] = true
		case *ast.LabeledStmt:
			skip[x.Label] = true
		case *ast.BranchStmt:
			if x.Label != nil {
				skip[x.Label] = true
			}
		}
		return true
	})
	ast.Inspect(root, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Name != name || skip[id] {
			return true
		}
		offs = append(offs, tf.Offset(id.Pos()))
		return true
	})
	sort.Ints(offs)
	return offs
}

// declaresIdent reports whether root contains a declaration of name — a :=
// definition, a var/const spec, a function parameter or a range clause. Used
// to reject shadowing of variables the preprocessor must rewrite.
func declaresIdent(root ast.Node, name string) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				for _, lhs := range x.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name == name {
						found = true
					}
				}
			}
		case *ast.ValueSpec:
			for _, id := range x.Names {
				if id.Name == name {
					found = true
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{x.Key, x.Value} {
				if id, ok := e.(*ast.Ident); ok && id.Name == name && x.Tok == token.DEFINE {
					found = true
				}
			}
		case *ast.FuncLit:
			for _, f := range x.Type.Params.List {
				for _, id := range f.Names {
					if id.Name == name {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// assignedFreeIdents returns the names assigned (=, op=, ++, --) inside root
// that root does not itself declare — the candidates that must be covered by
// a data-sharing clause under default(none). This is the same best-effort,
// AST-only discipline the paper applies; reads are not tracked.
func assignedFreeIdents(root ast.Node) []string {
	assigned := map[string]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range x.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					assigned[id.Name] = true
				}
			}
		case *ast.IncDecStmt:
			if id, ok := x.X.(*ast.Ident); ok {
				assigned[id.Name] = true
			}
		}
		return true
	})
	var out []string
	for name := range assigned {
		if !declaresIdent(root, name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// loopHeader is the canonical form the preprocessor extracts from a Go for
// statement, mirroring Section III-B2: "the loop's upper bound, lower bound,
// increment and comparison operator have to be determined".
type loopHeader struct {
	Var       string // loop variable name
	LB        string // lower-bound expression text (from the init statement)
	UB        string // upper-bound expression text (right of the comparison)
	Step      string // increment expression text (signed)
	Inclusive bool   // <= or >= comparison
	Body      *ast.BlockStmt
	For       *ast.ForStmt
	// Line is the for-line of a loop a transformation generated (Body and
	// For are nil then): what is printed when no directive consumes it.
	Line string
}

// extractLoopHeader validates and decomposes a worksharing for statement.
// The supported shape is the OpenMP canonical loop form transliterated to
// Go: `for i := lb; i < ub; i++` with <, <=, >, >= comparisons and ++, --,
// +=, -= increments. The loop variable must be used directly (type int).
func (lw *lowerer) extractLoopHeader(f *ast.ForStmt) (*loopHeader, error) {
	exprText := func(e ast.Expr) string { return lw.posText(e.Pos(), e.End()) }
	h := &loopHeader{Body: f.Body, For: f}

	// Init: `i := lb` or `i = lb`.
	init, ok := f.Init.(*ast.AssignStmt)
	if !ok || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return nil, fmt.Errorf("worksharing loop must initialise exactly one loop variable")
	}
	id, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, fmt.Errorf("worksharing loop variable must be a simple identifier")
	}
	h.Var = id.Name
	h.LB = exprText(init.Rhs[0])

	// Condition: `i CMP ub` (or `ub CMP i`, which we reject for clarity).
	cond, ok := f.Cond.(*ast.BinaryExpr)
	if !ok {
		return nil, fmt.Errorf("worksharing loop condition must be a comparison")
	}
	if lhs, ok := cond.X.(*ast.Ident); !ok || lhs.Name != h.Var {
		return nil, fmt.Errorf("worksharing loop condition must compare the loop variable %s on the left", h.Var)
	}
	switch cond.Op {
	case token.LSS, token.GTR:
	case token.LEQ, token.GEQ:
		h.Inclusive = true
	default:
		return nil, fmt.Errorf("worksharing loop comparison %s not supported (need <, <=, >, >=)", cond.Op)
	}
	h.UB = exprText(cond.Y)

	// Post: `i++`, `i--`, `i += e`, `i -= e`.
	switch post := f.Post.(type) {
	case *ast.IncDecStmt:
		if pid, ok := post.X.(*ast.Ident); !ok || pid.Name != h.Var {
			return nil, fmt.Errorf("worksharing loop increment must update the loop variable %s", h.Var)
		}
		if post.Tok == token.INC {
			h.Step = "1"
		} else {
			h.Step = "-1"
		}
	case *ast.AssignStmt:
		if len(post.Lhs) != 1 || len(post.Rhs) != 1 {
			return nil, fmt.Errorf("worksharing loop increment must be a single assignment")
		}
		if pid, ok := post.Lhs[0].(*ast.Ident); !ok || pid.Name != h.Var {
			return nil, fmt.Errorf("worksharing loop increment must update the loop variable %s", h.Var)
		}
		rhs := exprText(post.Rhs[0])
		switch post.Tok {
		case token.ADD_ASSIGN:
			h.Step = "(" + rhs + ")"
		case token.SUB_ASSIGN:
			h.Step = "-(" + rhs + ")"
		default:
			return nil, fmt.Errorf("worksharing loop increment %s not supported (need ++, --, +=, -=)", post.Tok)
		}
	default:
		return nil, fmt.Errorf("worksharing loop requires an increment statement")
	}

	// The increment direction must agree with the comparison; with a
	// non-constant step that is a runtime property, so only the literal
	// cases are checked here.
	switch {
	case h.Step == "1" && (cond.Op == token.GTR || cond.Op == token.GEQ):
		return nil, fmt.Errorf("ascending loop with descending comparison")
	case h.Step == "-1" && (cond.Op == token.LSS || cond.Op == token.LEQ):
		return nil, fmt.Errorf("descending loop with ascending comparison")
	}
	return h, nil
}

// extractCollapseNest walks n perfectly nested loops, returning one header
// per level. Perfect nesting means each loop's body contains exactly one
// statement: the next loop (collapse requires rectangular iteration spaces;
// bounds of inner loops must not reference outer loop variables, which is
// validated syntactically).
func (lw *lowerer) extractCollapseNest(f *ast.ForStmt, n int) ([]*loopHeader, error) {
	var hs []*loopHeader
	cur := f
	for level := 0; level < n; level++ {
		h, err := lw.extractLoopHeader(cur)
		if err != nil {
			return nil, fmt.Errorf("collapse level %d: %v", level+1, err)
		}
		hs = append(hs, h)
		if level == n-1 {
			break
		}
		if len(cur.Body.List) != 1 {
			return nil, fmt.Errorf("collapse(%d): loop nest is not perfect at level %d (body must contain exactly the next loop)", n, level+1)
		}
		next, ok := cur.Body.List[0].(*ast.ForStmt)
		if !ok {
			return nil, fmt.Errorf("collapse(%d): statement at level %d is not a for loop", n, level+1)
		}
		cur = next
	}
	// Rectangularity: inner bounds must not mention outer loop variables.
	for i := 1; i < len(hs); i++ {
		for j := 0; j < i; j++ {
			outer := hs[j].Var
			for _, e := range []ast.Expr{hs[i].For.Cond, hs[i].For.Init.(*ast.AssignStmt).Rhs[0]} {
				bad := false
				ast.Inspect(e, func(nd ast.Node) bool {
					if id, ok := nd.(*ast.Ident); ok && id.Name == outer {
						bad = true
					}
					return !bad
				})
				if bad {
					return nil, fmt.Errorf("collapse: bounds of loop %d reference outer loop variable %s (non-rectangular nest)", i+1, outer)
				}
			}
		}
	}
	return hs, nil
}
