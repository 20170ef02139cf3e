package core

import (
	"fmt"
	"go/ast"
	"strings"
)

// Automatic profiling instrumentation (gompcc -profile), computed from
// the same parse as the directive tree: the pragma list marks which
// functions do parallel work.
//
// Two injections, both plain defers at the top of a function body:
//
//   - every function whose body contains at least one pragma opens a
//     profiling span attributed to the function's real file:line —
//     `defer omp.ZoneAt(file, line, name)()` — so the flat profile and
//     the exported timeline name spans by user source locations;
//   - func main (in package main) gains the profiler lifecycle —
//     `defer omp.Profile()()` — deferred first so its report runs after
//     every zone has closed.
//
// The injections are zero-length splices into the original source, merged
// with the directive lowering in the one rendering pass.

// profileSplices returns the profiling injections, ascending by offset.
func (u *unit) profileSplices() []splice {
	var out []splice
	p := 0 // pragmas before the current declaration
	for _, decl := range u.file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		bodyStart, bodyEnd := u.off(fn.Body.Pos()), u.off(fn.Body.End())
		for p < len(u.pragmas) && u.pragmas[p].start <= bodyStart {
			p++
		}
		hasPragma := p < len(u.pragmas) && u.pragmas[p].start < bodyEnd
		isMain := u.file.Name.Name == "main" && fn.Recv == nil && fn.Name.Name == "main"
		if !hasPragma && !isMain {
			continue
		}
		// The injection stays on the opening-brace line: adding no
		// newline keeps the generated file's layout close to the user's;
		// gofmt normalises it on output.
		var b strings.Builder
		if isMain {
			b.WriteString(" defer omp.Profile()();")
		}
		if hasPragma {
			name := fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) > 0 {
				name = recvTypeName(fn.Recv.List[0].Type) + "." + name
			}
			fmt.Fprintf(&b, " defer omp.ZoneAt(%q, %d, %q)();", u.opts.Filename, u.tf.Line(fn.Pos()), name)
		}
		out = append(out, splice{bodyStart + 1, bodyStart + 1, b.String()})
	}
	return out
}

// recvTypeName renders a method receiver's base type for span names.
func recvTypeName(t ast.Expr) string {
	switch e := t.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(e.X)
	case *ast.IndexListExpr:
		return recvTypeName(e.X)
	}
	return "?"
}
