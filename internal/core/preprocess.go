package core

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/scanner"
	"go/token"
	"slices"
	"sort"
	"strings"
)

// Options configures Preprocess.
type Options struct {
	// Filename appears in diagnostics and generated omp.Loc calls.
	Filename string
	// OmpImport is the import path of the runtime API package; generated
	// code references it as `omp`.
	OmpImport string
	// Profile enables automatic instrumentation (gompcc -profile): every
	// function containing a pragma gets a source-located profiling span,
	// and func main gains the profiler lifecycle, so the built program
	// self-reports a flat profile naming user pragma locations — the
	// paper's "modifying the compiler to automatically instrument
	// applications" (Section VI).
	Profile bool
}

func (o *Options) defaults() {
	if o.Filename == "" {
		o.Filename = "src.go"
	}
	if o.OmpImport == "" {
		o.OmpImport = "gomp/omp"
	}
}

// Preprocess rewrites pragma-annotated Go source into plain Go that calls
// the omp runtime — the whole of Section III-B as one function. The result
// is gofmt-formatted. Source without pragmas is returned unchanged.
//
// The paper's Listing 5 replaces one kind of directive at a time and
// rescans between replacements, which in Zig walks an in-memory token
// stream. In Go a rescan is a run of go/parser, so here the file is parsed
// once (analyze), its pragmas are nested into a directive tree, and the tree
// is lowered in one recursion (lowerer) — see doc.go, stage 3.
func Preprocess(src []byte, opts Options) ([]byte, error) {
	opts.defaults()
	u, err := analyze(src, opts)
	if err != nil {
		return nil, err
	}
	lw := &lowerer{unit: u, cur: u.root, tvarAt: -1}
	if opts.Profile {
		lw.renames = u.profileSplices()
		lw.usesOmp = len(lw.renames) > 0
	}
	if len(u.pragmas) == 0 && len(lw.renames) == 0 {
		return src, nil
	}
	if err := lw.threadPrivate(); err != nil {
		return nil, err
	}
	// The import goes after the package clause; whether it is needed is
	// known once everything behind the clause is lowered.
	clause := u.off(u.file.Name.End())
	var head, tail strings.Builder
	lw.render(&head, 0, clause)
	lw.render(&tail, clause, len(src))
	for _, p := range u.pragmas {
		if !p.done { // no rendered range reached it: it would vanish silently
			lw.fail(p, "directive sits where the enclosing construct keeps no source text (a loop header, or between the loops of a collapsed nest)")
		}
	}
	if lw.err != nil {
		return nil, lw.err
	}
	out := append(make([]byte, 0, head.Len()+tail.Len()+32), head.String()...)
	if lw.usesOmp && !u.importsOmp() {
		out = fmt.Appendf(out, "\n\nimport omp %q", opts.OmpImport)
	}
	formatted, err := format.Source(append(out, tail.String()...))
	if err != nil {
		return nil, fmt.Errorf("preprocess: generated code does not parse: %v", err)
	}
	return formatted, nil
}

// unit is one file's trip through the front end: the single parse, every
// pragma in source order, and the directive tree built over them.
type unit struct {
	opts Options
	src  []byte
	file *ast.File
	tf   *token.File

	pragmas []*node // every pragma, in source order
	root    *node   // the file: its Subdirectives are the outermost directives
	// cancels: the file carries a cancellation directive, so barrier sites
	// double as lowered cancellation points (cancelGuard).
	cancels bool
	// threadFns are the user's own functions that take an *omp.Thread: a
	// construct inside one binds to that parameter.
	threadFns []threadFn
}

type threadFn struct {
	start, end int // the function body
	name       string
}

// node is one directive of the tree: the paper's "payload … contain[ing]
// the information required to perform such a replacement" — the directive,
// where its comment lives and the statement it applies to — plus the
// directives nested inside that statement.
type node struct {
	// d is what this node lowers; pragma is the directive as written, which
	// diagnostics name. They differ for the two halves of a `parallel for`:
	// a parallel node whose only subdirective is a synthesised for node.
	d, pragma *Directive
	line      int
	// start..end is the source range the node's lowering replaces: the
	// pragma comment (ending at cEnd) through the end of stmt, or just the
	// comment for a standalone directive.
	start, cEnd, end int
	stmt             ast.Stmt
	parent           *node
	// Subdirectives are the directives inside stmt, ascending by offset.
	Subdirectives []*node
	// inner is the directive stacked between this one and stmt: the two
	// form the construct this directive applies to, as in C, where the
	// statement after a pragma may itself be a pragma'd statement. For a
	// loop directive it is a transformation — the OpenMP 5.1 rule that a
	// directive above a transformation applies to the loops it generates.
	inner *node
	done  bool // lowered
}

func (u *unit) off(p token.Pos) int { return u.tf.Offset(p) }

func (u *unit) errf(n *node, f string, args ...any) error {
	return fmt.Errorf("%s:%d: omp %s: %s", u.opts.Filename, n.line, n.pragma.Kind, fmt.Sprintf(f, args...))
}

// takesLoop reports whether a directive applies to a canonical loop nest.
func takesLoop(k DirKind) bool {
	return k == DirFor || k == DirParallelFor || k == DirTaskloop || k == DirTile || k == DirUnroll
}

// takesStmt reports whether a directive applies to the statement after it.
func takesStmt(k DirKind) bool {
	switch k {
	case DirBarrier, DirTaskwait, DirTaskyield, DirCancel, DirCancellationPoint, DirThreadPrivate, DirSection:
		return false
	}
	return true
}

// analyze parses src once and builds the directive tree. A file that does
// not parse yields one file:line:col diagnostic, before anything is lowered.
func analyze(src []byte, opts Options) (*unit, error) {
	u := &unit{opts: opts, src: src, root: &node{end: len(src)}}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, opts.Filename, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		var list scanner.ErrorList
		if errors.As(err, &list) && len(list) > 0 {
			err = list[0]
		}
		return nil, fmt.Errorf("preprocess: %v", err)
	}
	u.file, u.tf = file, fset.File(file.Pos())
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text, _, ok := Sentinel(c.Text)
			if !ok {
				continue
			}
			line := u.tf.Line(c.Pos())
			d, err := ParseDirective(text)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", opts.Filename, line, err)
			}
			end := u.off(c.End())
			u.pragmas = append(u.pragmas, &node{d: d, pragma: d, line: line, start: u.off(c.Pos()), cEnd: end, end: end})
			u.cancels = u.cancels || d.Kind == DirCancel || d.Kind == DirCancellationPoint
		}
	}
	if len(u.pragmas) == 0 {
		return u, nil
	}
	if err := u.bind(); err != nil {
		return nil, err
	}
	return u, u.shape(u.root)
}

// bind gives every statement-taking pragma the statement it immediately
// precedes — one ordered merge of the file's statements and pragmas, with
// nothing but comments allowed in between — and nests the pragmas by source
// range as it goes.
func (u *unit) bind() error {
	var stmts []ast.Stmt // pre-order, so ascending by position
	ast.Inspect(u.file, func(n ast.Node) bool {
		switch x := n.(type) {
		case ast.Stmt:
			stmts = append(stmts, x)
		case *ast.FuncDecl:
			u.noteThreadFn(x.Type, x.Body)
		case *ast.FuncLit:
			u.noteThreadFn(x.Type, x.Body)
		}
		return true
	})
	j, stack := 0, []*node{u.root}
	for _, p := range u.pragmas {
		if takesStmt(p.d.Kind) {
			for j < len(stmts) && u.off(stmts[j].Pos()) < p.cEnd {
				j++
			}
			if j < len(stmts) && onlyComments(u.src[p.cEnd:u.off(stmts[j].Pos())]) {
				p.stmt, p.end = stmts[j], u.off(stmts[j].End())
			}
		} else if d := u.file.Decls; p.d.Kind != DirThreadPrivate && !slices.ContainsFunc(d, func(d ast.Decl) bool {
			return u.off(d.Pos()) <= p.start && p.start < u.off(d.End())
		}) {
			return u.errf(p, "directive must appear inside a function body")
		}
		// Ranges now nest or are disjoint.
		for p.start >= stack[len(stack)-1].end {
			stack = stack[:len(stack)-1]
		}
		p.parent = stack[len(stack)-1]
		p.parent.Subdirectives = append(p.parent.Subdirectives, p)
		stack = append(stack, p)
	}
	return nil
}

// onlyComments reports whether gap holds nothing but white space and
// comments.
func onlyComments(gap []byte) bool {
	for len(gap) > 0 {
		end := 0
		switch {
		case bytes.HasPrefix(gap, []byte("//")):
			end = bytes.IndexByte(gap, '\n')
		case bytes.HasPrefix(gap, []byte("/*")):
			end = bytes.Index(gap, []byte("*/")) + 1
		case gap[0] != ' ' && gap[0] != '\t' && gap[0] != '\n' && gap[0] != '\r':
			return false
		}
		if end < 0 {
			return true // a line comment ending the gap
		}
		gap = gap[end+1:]
	}
	return true
}

// noteThreadFn records a function whose parameters include an *omp.Thread.
func (u *unit) noteThreadFn(ft *ast.FuncType, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	for _, f := range ft.Params.List {
		star, ok := f.Type.(*ast.StarExpr)
		if !ok {
			continue
		}
		sel, ok := star.X.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Thread" {
			continue
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "omp" {
			continue
		}
		for _, id := range f.Names {
			u.threadFns = append(u.threadFns, threadFn{u.off(body.Pos()), u.off(body.End()), id.Name})
		}
	}
}

// shape turns the containment tree into the tree the lowering walks: a
// stacked directive becomes its parent's inner, `parallel for` becomes a
// parallel node over a synthesised for node (combined constructs are by
// definition the nesting of their parts), section markers become nodes that
// own the directives of their group, and the two bindings that need the
// whole tree are checked — a section outside sections, and an ordered
// region in a loop that lacks the ordered clause.
func (u *unit) shape(n *node) error {
	if n.stmt != nil && len(n.Subdirectives) > 0 && n.Subdirectives[0].start < u.off(n.stmt.Pos()) {
		// A directive between n and its statement forms, with that
		// statement, the construct n applies to — unless it has no
		// statement, or n needs loops and it does not generate any.
		c := n.Subdirectives[0]
		if c.stmt != n.stmt || (takesLoop(n.d.Kind) && c.d.Kind != DirTile && c.d.Kind != DirUnroll) {
			return u.errf(n, "directive %q between %s and its statement would be discarded; stack it above instead", c.d.Kind, n.d.Kind)
		}
		n.inner, n.Subdirectives = c, n.Subdirectives[1:]
	}
	switch n.d.kind() {
	case DirParallelFor:
		par, loop := DistributeParallelFor(n.d)
		half := *n
		half.d, half.parent, half.start = loop, n, n.cEnd
		for _, c := range half.Subdirectives {
			c.parent = &half
		}
		if half.inner != nil {
			half.inner.parent = &half
		}
		n.d, n.inner, n.Subdirectives = par, nil, []*node{&half}
	case DirSections:
		if blk, ok := n.stmt.(*ast.BlockStmt); ok && n.inner == nil {
			if err := u.groupSections(n, blk); err != nil {
				return err
			}
		}
	case DirSection:
		if n.parent.d.kind() != DirSections {
			return u.errf(n, "section directive outside a sections block")
		}
	case DirOrdered:
		// An ordered region enclosed by no loop construct is left alone:
		// orphaned ordered regions in called functions bind dynamically,
		// the spec's escape hatch a lexical check cannot see past.
		for a := n.parent; a != nil; a = a.parent {
			if a.d.kind() == DirFor {
				if !a.d.Clauses.Ordered {
					return u.errf(a, "ordered region inside a worksharing loop that lacks the ordered clause")
				}
				break
			}
		}
	}
	for _, c := range n.Subdirectives {
		if err := u.shape(c); err != nil {
			return err
		}
	}
	if n.inner != nil {
		return u.shape(n.inner)
	}
	return nil
}

// kind is the directive kind, DirInvalid for the root.
func (d *Directive) kind() DirKind {
	if d == nil {
		return DirInvalid
	}
	return d.Kind
}

// groupSections regroups the Subdirectives of a sections node under one
// section node per statement group: the text before the first `//omp
// section` marker is a group of its own (the first group needs no marker),
// and each marker owns the text up to the next.
func (u *unit) groupSections(n *node, blk *ast.BlockStmt) error {
	d := &Directive{Kind: DirSection}
	cur := &node{d: d, pragma: d, line: n.line, start: u.off(blk.Lbrace) + 1, parent: n}
	groups := []*node{cur}
	for _, c := range n.Subdirectives {
		if c.d.Kind != DirSection {
			c.parent = cur
			cur.Subdirectives = append(cur.Subdirectives, c)
			continue
		}
		for _, s := range blk.List {
			if u.off(s.Pos()) < c.start && c.start < u.off(s.End()) {
				return u.errf(c, "section directive must be at the top level of its sections block")
			}
		}
		cur.end, c.start = c.start, c.cEnd
		groups, cur = append(groups, c), c
	}
	cur.end = u.off(blk.Rbrace)
	n.Subdirectives = groups
	return nil
}

// importsOmp reports whether the file already imports the runtime package
// under the name `omp`. An unrelated package that merely happens to be
// named omp does not count — generated omp.* calls must never silently bind
// to foreign code.
func (u *unit) importsOmp() bool {
	for _, imp := range u.file.Imports {
		if strings.Trim(imp.Path.Value, `"`) == u.opts.OmpImport && (imp.Name == nil || imp.Name.Name == "omp") {
			return true
		}
	}
	return false
}

// splice replaces src[off:end] with text: an identifier rename, a
// rewritten declaration, or (off == end) an insertion.
type splice struct {
	off, end int
	text     string
}

// mergeSplices merges two splice lists that are each ascending by offset.
func mergeSplices(a, b []splice) []splice {
	if len(a) == 0 {
		return b
	} else if len(b) == 0 {
		return a
	}
	out := make([]splice, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0].off <= b[0].off {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// lowerer is the single pass over the tree: one consumer of the source
// bytes and one reporter. Every generator keeps source text only through
// render, which splices in the lowered directives nested there and the
// substitutions in force, in ascending offset — the paper's «adjust source
// offset» bookkeeping done by never going back.
type lowerer struct {
	*unit
	// cur is the node whose Subdirectives the range being rendered may hold.
	cur *node
	// renames are the substitutions in force, ascending by offset:
	// threadprivate accessors and -profile insertions for the whole file,
	// plus the reduction/lastprivate renames of every enclosing loop.
	renames []splice
	// tvar names the *omp.Thread parameter of the innermost generated
	// closure that has one ("" outside any), opened at offset tvarAt.
	tvar   string
	tvarAt int
	// tpVars maps the file's threadprivate variables to their accessors.
	tpVars map[string]string
	// usesOmp: generated code references the omp package. It can stay
	// false — unroll lowers to plain loops — and an injected import would
	// then be unused and fail compilation.
	usesOmp bool
	err     error // the first diagnostic; later ones are its consequences
}

func (lw *lowerer) fail(n *node, f string, args ...any) {
	if lw.err == nil {
		lw.err = lw.errf(n, f, args...)
	}
}

// render writes src[from:to] with the Subdirectives of cur lowered in place
// and the renames in force applied.
func (lw *lowerer) render(b *strings.Builder, from, to int) {
	subs, rens := lw.cur.Subdirectives, lw.renames
	i := sort.Search(len(subs), func(i int) bool { return subs[i].start >= from })
	r := sort.Search(len(rens), func(i int) bool { return rens[i].off >= from })
	for pos := from; ; {
		for r < len(rens) && rens[r].off < pos {
			r++ // inside what was just written: applied there, or replaced
		}
		sub, ren := to, to
		if i < len(subs) && subs[i].end <= to {
			sub = subs[i].start
		}
		if r < len(rens) && rens[r].end <= to {
			ren = rens[r].off
		}
		switch {
		case sub == to && ren == to:
			b.Write(lw.src[pos:to])
			return
		case ren <= sub: // an insertion goes before a directive at the same offset
			b.Write(lw.src[pos:ren])
			b.WriteString(rens[r].text)
			pos = rens[r].end
			r++
		default:
			b.Write(lw.src[pos:sub])
			b.WriteString(lw.lower(subs[i]))
			pos = subs[i].end
			i++
		}
	}
}

func (lw *lowerer) text(from, to int) string {
	var b strings.Builder
	b.Grow(to - from)
	lw.render(&b, from, to)
	return b.String()
}

func (lw *lowerer) posText(from, to token.Pos) string { return lw.text(lw.off(from), lw.off(to)) }

// enter makes n the current node until the returned function runs.
func (lw *lowerer) enter(n *node) func() {
	saved := lw.cur
	lw.cur = n
	return func() { lw.cur = saved }
}

// lower returns the text that replaces n.
func (lw *lowerer) lower(n *node) string {
	defer lw.enter(n)()
	n.done = true
	lw.usesOmp = lw.usesOmp || n.d.Kind != DirUnroll
	return lw.gen(n)
}

// bindThread makes name the thread variable for whatever is lowered until
// the returned function runs: n's generated closure takes it as a parameter.
func (lw *lowerer) bindThread(n *node, name string) func() {
	saved, at := lw.tvar, lw.tvarAt
	lw.tvar, lw.tvarAt = name, n.start
	return func() { lw.tvar, lw.tvarAt = saved, at }
}

// threadVar returns the in-scope *omp.Thread variable for n: the parameter
// of the innermost enclosing generated closure or user function that has
// one, or "" when the construct is orphaned (no enclosing parallel region —
// the generated code then binds omp.Current()).
func (lw *lowerer) threadVar(n *node) string {
	name, at := lw.tvar, lw.tvarAt
	for _, f := range lw.threadFns {
		if f.start > at && f.start <= n.start && n.start < f.end {
			name, at = f.name, f.start
		}
	}
	return name
}

// team is threadVar for constructs that open a block: an orphaned one
// binds __omp_t itself, with the statement returned as bind.
func (lw *lowerer) team(n *node) (tvar, bind string, orphan bool) {
	if tvar = lw.threadVar(n); tvar != "" {
		return tvar, "", false
	}
	return "__omp_t", "__omp_t := omp.Current()\n", true
}

// block returns the lowered text between the braces of the block n applies
// to; what names the construct when the block holds an escaping return.
func (lw *lowerer) block(n *node, what string) (string, bool) {
	blk, ok := n.stmt.(*ast.BlockStmt)
	switch {
	case n.stmt == nil || (n.inner == nil && !ok):
	case hasEscapingReturn(n.stmt):
		lw.failReturn(n, what)
		return "", false
	case !lw.checkDefaultNone(n, n.stmt):
		return "", false
	case n.inner == nil:
		return lw.posText(blk.Lbrace+1, blk.Rbrace), true
	default:
		// The construct stacked below must itself lower to a block.
		if text := lw.lower(n.inner); strings.HasPrefix(text, "{") && strings.HasSuffix(text, "}") {
			return text[1 : len(text)-1], lw.err == nil
		}
	}
	lw.fail(n, "directive must immediately precede a { … } block")
	return "", false
}

// failReturn reports a return that would branch out of n's construct.
// OpenMP forbids it, and after outlining it would silently change meaning.
func (lw *lowerer) failReturn(n *node, what string) {
	why := ""
	if n.d.Kind == DirParallel || n.d.Kind == DirTask {
		why = " (OpenMP forbids branching out of a structured block)"
	}
	lw.fail(n, "return inside %s is not allowed%s", what, why)
}

// hasEscapingReturn reports whether body contains a return statement that
// is not wrapped in a nested function literal.
func hasEscapingReturn(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false // its returns are fine
		case *ast.ReturnStmt:
			found = true
		}
		return !found
	})
	return found
}
