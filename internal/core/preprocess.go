package core

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode"
)

// Options configures Transform.
type Options struct {
	// Filename appears in diagnostics and generated omp.Loc calls.
	Filename string
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
}

// ompImport is the import path of the runtime API package; generated code
// references it as `omp`.
const ompImport = "gomp/omp"

// Transform rewrites pragma-annotated Go source into plain Go that calls
// the omp runtime — the whole of Section III-B as one function. The output
// is laid out as emit.go's "Layout" comment says: in gofmt layout whenever
// the input is. Source without pragmas (and, under Profile, nothing
// to instrument) is returned unchanged, with Changed false.
//
// The paper's Listing 5 replaces one kind of directive at a time and
// rescans between replacements, which in Zig walks an in-memory token
// stream. In Go a rescan is a run of go/parser, so here the file is parsed
// once (analyze), its pragmas are nested into a directive tree, and the tree
// is lowered in one recursion (lowerer) — see doc.go, stage 3. The lowering
// lays out its output itself (emit.go) and nothing prints the input or
// parses the output, the paper's splice-without-reprint design; only text
// the emitter cannot lay out sends the output through format.Source
// (settle).
func Transform(src []byte, opts Options) (TransformResult, error) {
	out, changed, err := transform(nil, src, opts)
	if err != nil {
		return TransformResult{}, err
	}
	if !changed {
		out = src
	}
	return TransformResult{Output: out, Changed: changed}, nil
}

// AppendTransform is Transform writing its output after the bytes of dst:
// Output is dst with the output of Transform(src, opts) appended, so that
// a caller lowering file after file can hand it the same buffer each time.
// When nothing changes, src itself is appended.
func AppendTransform(dst, src []byte, opts Options) (TransformResult, error) {
	out, changed, err := transform(dst, src, opts)
	if err != nil {
		return TransformResult{}, err
	}
	if !changed {
		out = append(dst, src...)
	}
	return TransformResult{Output: out, Changed: changed}, nil
}

// transform lowers src after the bytes of dst and returns dst with the
// output appended, or changed false and no output when src has nothing
// to lower.
func transform(dst, src []byte, opts Options) (out []byte, changed bool, err error) {
	opts.defaults()
	u, err := analyze(src, opts)
	if err != nil {
		return nil, false, err
	}
	lw := &lowerer{unit: u, cur: u.root, tvarAt: -1, pbuf: make([]byte, 0, 256)}
	if opts.Profile {
		lw.renames = u.profileSplices()
		lw.usesOmp = len(lw.renames) > 0
	}
	if len(u.pragmas) == 0 && len(lw.renames) == 0 {
		return nil, false, nil
	}
	if err := lw.threadPrivate(); err != nil {
		return nil, false, err
	}
	size := u.outputSize()
	for _, s := range lw.renames {
		size += len(s.text)
	}
	base := len(dst)
	dst = slices.Grow(dst, size)
	e := &emitter{out: dst[base:]}
	lw.e = e
	// The import goes after the package clause. Whether it is needed is
	// known once everything behind the clause is lowered, so it is written
	// ahead and taken out again if not.
	clause := u.off(u.file.Name.End())
	lw.render(0, clause)
	imp, body := len(e.out), len(e.out)
	if !u.importsOmp() {
		e.out = strconv.AppendQuote(append(e.out, importOmp...), ompImport)
		body = len(e.out)
	}
	lw.render(clause, len(src))
	for _, p := range u.pragmas {
		if !p.done { // no rendered range reached it: it would vanish silently
			lw.fail(p, "directive sits where the enclosing construct keeps no source text (a loop header, or between the loops of a collapsed nest)")
		}
	}
	if lw.err != nil {
		return nil, false, lw.err
	}
	out = e.out
	if body > imp {
		if !lw.usesOmp {
			out = append(out[:imp], out[body:]...)
		} else {
			u.reformat = u.reformat || body == len(out) || out[body] != '\n'
		}
	}
	// Form feeds and the like steer gofmt's column writer wherever they
	// sit, and multi-line raw strings must keep their lines.
	u.reformat = u.reformat || e.bad || bytes.ContainsAny(src, "\f\v\r") || u.multiLineRaw()
	out, err = u.settle(out)
	if err != nil {
		return nil, false, err
	}
	// Every pragma was lowered or the profiler instrumented something:
	// the output differs from src.
	if len(out) > 0 && &out[0] == &dst[:base+1][base] {
		return dst[:base+len(out)], true, nil // written in place
	}
	return append(dst[:base], out...), true, nil
}

// importOmp is what the runtime's import adds after the package clause,
// before the quoted path.
const importOmp = "\n\nimport omp "

// outputSize is the capacity the file's output is given: the source, the
// import, and what each directive's lowering writes beside the source text
// it keeps. That is the text of a minimal lowering of its kind, one loop
// level's text for each level of the nest beyond the first, the file name
// its omp.Loc repeats, a tab more per line of its statement for each
// block its lowering wraps the statement in, and for unroll the copies of
// the loop. An eighth more covers what the figures leave out (clause
// expressions, renamed variables), so that the buffer is seldom regrown.
// Over the benchmark's corpora for seeds 1–30 the output is 3.75 times
// its source and fills 81–101 % of this size (2 files of 1 740 overrun
// it); over the lowering fixtures it fills 69–109 %.
func (u *unit) outputSize() int {
	gen := 0
	for _, p := range u.pragmas {
		c := &p.pragma.Clauses
		t := lowered[p.pragma.Kind]
		levels := max(c.Collapse, 1)
		if p.pragma.Kind == DirTile {
			levels = len(c.rare().Sizes)
		}
		gen += t.fixed + t.level*(levels-1) + len(u.opts.Filename)
		if p.pragma.Kind == DirParallelFor {
			gen += len(u.opts.Filename) // a Loc for each half
		}
		stmt := u.src[p.cEnd:p.end]
		if p.pragma.Kind == DirUnroll {
			f := c.rare().UnrollFactor
			if f == 0 {
				f = defaultUnrollFactor
			}
			gen += int(f+1) * len(stmt)
		} else {
			gen += t.tabs * bytes.Count(stmt, []byte("\n"))
		}
		for _, r := range c.Reductions {
			gen += 110 * len(r.Vars)
		}
	}
	return len(u.src) + len(importOmp) + len(ompImport) + 2 + gen + gen/8
}

// lowered is, per directive kind, the bytes a lowering writes besides the
// source it keeps: fixed for a one-level nest and a one-statement body
// (measured on minimal lowerings, file name "f.go"), level for each
// further loop level, and tabs for each line of the statement.
var lowered = [...]struct{ fixed, level, tabs int }{
	DirParallel:          {70, 0, 1},
	DirFor:               {460, 230, 2},
	DirParallelFor:       {510, 230, 4},
	DirSections:          {110, 0, 2},
	DirSingle:            {55, 0, 1},
	DirMaster:            {55, 0, 1},
	DirCritical:          {15, 0, 0},
	DirBarrier:           {15, 0, 0},
	DirAtomic:            {5, 0, 0},
	DirTask:              {100, 0, 1},
	DirTaskwait:          {15, 0, 0},
	DirTaskgroup:         {85, 0, 1},
	DirTaskloop:          {355, 0, 2},
	DirCancel:            {60, 0, 0},
	DirCancellationPoint: {60, 0, 0},
	DirOrdered:           {55, 0, 1},
	DirTaskyield:         {15, 0, 0},
	DirTile:              {260, 260, 1},
	DirUnroll:            {250, 0, 0},
}

// unit is one file's trip through the front end: the single parse, every
// pragma in source order, and the directive tree built over them.
type unit struct {
	opts Options
	src  []byte
	file *ast.File
	tf   *token.File

	// reformat: the output holds text the lowering cannot lay out as gofmt
	// would, so settle runs format.Source over it.
	reformat bool
	// trailing are the lines ending in a comment after code, ascending;
	// aligned are source ranges gofmt lays out in aligned columns.
	trailing []int
	aligned  [][2]int

	pragmas  []*node // every pragma, in source order, all in one slab
	root     *node   // the file: its Subdirectives are the outermost directives
	fileNode node    // what root points to
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
	// dir holds the directive d points to: the pragma's, or the loop half's
	// of a `parallel for`.
	dir Directive
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
	u := &unit{opts: opts, src: src}
	u.root, u.fileNode.end = &u.fileNode, len(src)
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
	n := 0
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if _, ok := pragmaText(c); ok {
				n++
			}
		}
	}
	slab := make([]node, n)
	u.pragmas = make([]*node, 0, n)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			start := u.off(c.Pos())
			lineStart := bytes.LastIndexByte(src[:start], '\n') + 1
			trailing := len(bytes.TrimLeft(src[lineStart:start], " \t")) > 0
			if trailing {
				u.trailing = append(u.trailing, u.tf.Line(c.Pos()))
			}
			if c.Text[1] == '*' && strings.IndexByte(c.Text, '\n') >= 0 {
				u.reformat = true // its lines must not move
			}
			text, ok := pragmaText(c)
			if !ok {
				continue
			}
			u.reformat = u.reformat || trailing // a pragma after code on its line
			p := &slab[len(u.pragmas)]
			p.line = u.tf.Line(c.Pos())
			if err := parseDirective(&p.dir, text); err != nil {
				return nil, fmt.Errorf("%s:%d: %v", opts.Filename, p.line, err)
			}
			p.d, p.pragma = &p.dir, &p.dir
			p.start, p.cEnd, p.end = u.off(c.Pos()), u.off(c.End()), u.off(c.End())
			u.pragmas = append(u.pragmas, p)
			u.cancels = u.cancels || p.dir.Kind == DirCancel || p.dir.Kind == DirCancellationPoint
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

// pragmaText returns the text of comment c after its sentinel, if it is a
// pragma.
func pragmaText(c *ast.Comment) (string, bool) {
	// Trailing space is no part of a comment to gofmt, which would bring a
	// sentinel to the end of the line.
	text, _, ok := Sentinel(strings.TrimRightFunc(c.Text, unicode.IsSpace))
	return text, ok
}

// bind gives every statement-taking pragma the statement it immediately
// precedes — one ordered merge of the file's statements and pragmas, with
// nothing but comments allowed in between — and nests the pragmas by source
// range as it goes. The statements come from one pre-order walk, so in
// ascending position, and are merged as they come: only the ones enclosing
// the walk's position are kept.
func (u *unit) bind() error {
	var err error
	i, stack := 0, []*node{u.root}
	var open []ast.Stmt // the statements enclosing the walk's position
	// upTo places the pragmas up to offset to; next is the statement at
	// to, nil at the end of the file.
	upTo := func(to int, next ast.Stmt) {
		for ; i < len(u.pragmas) && u.pragmas[i].start <= to && err == nil; i++ {
			err = u.place(u.pragmas[i], open, next, &stack)
		}
	}
	ast.Inspect(u.file, func(n ast.Node) bool {
		if err != nil {
			return false
		}
		switch x := n.(type) {
		case ast.Stmt:
			off := u.off(x.Pos())
			upTo(off, x)
			for len(open) > 0 && u.off(open[len(open)-1].End()) <= off {
				open = open[:len(open)-1]
			}
			open = append(open, x)
			if l, ok := x.(*ast.LabeledStmt); ok {
				if _, ok := l.Stmt.(*ast.EmptyStmt); ok {
					u.reformat = true // gofmt drops the empty line after a label of nothing
				}
			}
		case *ast.FuncDecl:
			u.noteThreadFn(x.Type, x.Body)
			u.noteOneLine(x.Body)
		case *ast.FuncLit:
			u.noteThreadFn(x.Type, x.Body)
			u.noteOneLine(x.Body)
		case *ast.StructType, *ast.InterfaceType:
			u.aligned = append(u.aligned, [2]int{u.off(x.Pos()), u.off(x.End())})
		case *ast.KeyValueExpr:
			if _, ok := x.Key.(*ast.Ident); !ok {
				u.aligned = append(u.aligned, [2]int{u.off(x.Key.Pos()), u.off(x.Key.End())})
			}
		}
		return true
	})
	upTo(len(u.src), nil)
	return err
}

// place binds pragma p, which comes before next (nil: no statement
// follows it) and after every statement already walked; open are those of
// them still enclosing p's position. stack holds the pragmas whose ranges
// may enclose p's.
func (u *unit) place(p *node, open []ast.Stmt, next ast.Stmt, stack *[]*node) error {
	var prev ast.Stmt // the statement before p in its list, if any
	for len(open) > 0 && u.off(open[len(open)-1].End()) <= p.start {
		prev, open = open[len(open)-1], open[:len(open)-1]
	}
	// A directive lowers to statements (a threadprivate to nothing), which go
	// only between statements. A standalone one after a return never runs,
	// and ending a function it would leave no terminating statement.
	switch k := p.d.Kind; {
	case len(open) > 0 && !stmtPosition(open[len(open)-1], u.tf.Pos(p.start)):
		return u.errf(p, "directive sits inside a statement, where no statement can go")
	case k == DirThreadPrivate:
	case len(open) == 0:
		return u.errf(p, "directive must appear inside a function body")
	case !takesStmt(k) && k != DirSection && leaves(prev):
		return u.errf(p, "directive after the return, jump or panic on line %d can never run", u.tf.Line(prev.Pos()))
	}
	if takesStmt(p.d.Kind) && next != nil && onlyComments(u.src[p.cEnd:u.off(next.Pos())]) {
		p.stmt, p.end = next, u.off(next.End())
	}
	// Ranges now nest or are disjoint.
	s := *stack
	for p.start >= s[len(s)-1].end {
		s = s[:len(s)-1]
	}
	p.parent = s[len(s)-1]
	p.parent.Subdirectives = append(p.parent.Subdirectives, p)
	*stack = append(s, p)
	return nil
}

// stmtPosition reports whether pos, inside s, lies between statements of
// its list, or between a label and its statement.
func stmtPosition(s ast.Stmt, pos token.Pos) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return true
	case *ast.CaseClause:
		return pos > s.Colon
	case *ast.CommClause:
		return pos > s.Colon
	case *ast.LabeledStmt:
		return pos > s.Colon
	}
	return false
}

// leaves reports whether control never passes from s (nil: none) to the
// statement after it: s returns, jumps or calls panic.
func leaves(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			id, ok := call.Fun.(*ast.Ident)
			return ok && id.Name == "panic"
		}
	}
	return false
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

// noteOneLine records a function body written on one line: gofmt keeps it
// there only while it is short, so an edit inside it is gofmt's to lay out.
func (u *unit) noteOneLine(body *ast.BlockStmt) {
	if body != nil && u.tf.Line(body.Lbrace) == u.tf.Line(body.Rbrace) {
		u.aligned = append(u.aligned, [2]int{u.off(body.Lbrace), u.off(body.Rbrace)})
	}
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
		// The loop half, which holds its own directive, the region's
		// directive and its list of subdirectives come in one allocation.
		pf := new(struct {
			half node
			par  Directive
			subs [1]*node
		})
		half := &pf.half
		*half = *n
		pf.par, half.dir = DistributeParallelFor(n.d)
		half.d, half.parent, half.start = &half.dir, n, n.cEnd
		for _, c := range half.Subdirectives {
			c.parent = half
		}
		if half.inner != nil {
			half.inner.parent = half
		}
		pf.subs[0] = half
		n.d, n.inner, n.Subdirectives = &pf.par, nil, pf.subs[:]
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
	cur := &node{dir: Directive{Kind: DirSection}, line: n.line, start: u.off(blk.Lbrace) + 1, parent: n}
	cur.d, cur.pragma = &cur.dir, &cur.dir
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
		if strings.Trim(imp.Path.Value, `"`) == ompImport && (imp.Name == nil || imp.Name.Name == "omp") {
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
	// thread: text is a threadprivate accessor calling omp.Current(), for
	// which the thread variable in scope is substituted (spliced).
	thread bool
}

// spliced returns the text s puts in where the lowering stands.
func (lw *lowerer) spliced(s splice) string {
	if !s.thread {
		return s.text
	}
	if tvar := lw.threadAt(s.off); tvar != "" {
		return strings.Replace(s.text, "omp.Current()", tvar, 1)
	}
	return s.text
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
// bytes, one writer and one reporter. Every generator keeps source text
// only through render, which splices in the lowered directives nested there
// and the substitutions in force, in ascending offset — the paper's «adjust
// source offset» bookkeeping done by never going back.
type lowerer struct {
	*unit
	// e is where the lowering writes: the file's output buffer, or a
	// scratch buffer (capture); spare and spareE are a scratch buffer and
	// emitter to reuse.
	e      *emitter
	spare  []byte
	spareE *emitter
	// pbuf is the expression printers' buffer to reuse (printer).
	pbuf []byte
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
func (lw *lowerer) render(from, to int) {
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
			emitText(lw.e, lw.src[pos:to])
			return
		case ren <= sub: // an insertion goes before a directive at the same offset
			emitText(lw.e, lw.src[pos:ren])
			emitText(lw.e, lw.spliced(rens[r]))
			pos = rens[r].end
			r++
		default:
			emitText(lw.e, lw.src[pos:sub])
			lw.lower(subs[i])
			pos = subs[i].end
			i++
		}
	}
}

// enter makes n the current node and returns the one to restore by leave.
func (lw *lowerer) enter(n *node) *node {
	saved := lw.cur
	lw.cur = n
	return saved
}

func (lw *lowerer) leave(saved *node) { lw.cur = saved }

// lower writes the text that replaces n where the emitter stands. Its
// generated lines sit at the pragma's indentation, shifted as the user
// section it lands in shifts its lines; its first line continues the line
// the pragma was on.
func (lw *lowerer) lower(n *node) {
	defer lw.leave(lw.enter(n))
	n.done = true
	lw.usesOmp = lw.usesOmp || n.d.Kind != DirUnroll
	e := lw.e
	depth, last, bol, start := e.depth, e.last, e.bol, len(e.out)
	e.depth, e.last = lw.indentOf(n.start), 0
	if s := e.sec(); s != nil {
		e.depth += s.depth - s.orig
	} else {
		e.bol = false
	}
	// After code on its line, the replacement starts a line of its own: it
	// must not continue that code (x++ //omp barrier).
	if _, ok := slices.BinarySearch(lw.trailing, n.line); ok && lw.src[n.start] == '/' {
		e.code("\n")
	}
	lw.gen(n)
	// The source after n continues the last line of its replacement, which
	// takes the pragma's line too when it is a single line.
	top := n.end
	if bytes.IndexByte(e.out[start:], '\n') < 0 {
		top = n.start
	}
	lw.edited(n.end, top)
	e.depth, e.last = depth, last
	if len(e.out) == start {
		e.bol = bol
	} else if s := e.sec(); s != nil && s.state == pastIndent && e.bol {
		s.state, s.tabs, s.spaces = inIndent, 0, 0 // the source goes on on a line of its own
	}
}

// bindThread makes name the thread variable for whatever is lowered until
// unbind restores the binding it returns: n's generated closure takes it as
// a parameter.
func (lw *lowerer) bindThread(n *node, name string) threadBinding {
	saved := threadBinding{lw.tvar, lw.tvarAt}
	lw.tvar, lw.tvarAt = name, n.start
	return saved
}

type threadBinding struct {
	name string
	at   int
}

func (lw *lowerer) unbind(b threadBinding) { lw.tvar, lw.tvarAt = b.name, b.at }

// threadVar returns the in-scope *omp.Thread variable for n: the parameter
// of the innermost enclosing generated closure or user function that has
// one, or "" when the construct is orphaned (no enclosing parallel region —
// the generated code then binds omp.Current()).
func (lw *lowerer) threadVar(n *node) string { return lw.threadAt(n.start) }

// threadAt is threadVar for the source text at off.
func (lw *lowerer) threadAt(off int) string {
	name, at := lw.tvar, lw.tvarAt
	for _, f := range lw.threadFns {
		if f.start > at && f.start <= off && off < f.end && f.name != "_" {
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

// block returns the inside of the block n applies to; what names the
// construct when the block holds an escaping return. A construct stacked
// below n is lowered into scratch here, and must itself lower to a block.
func (lw *lowerer) block(n *node, what string) (body, bool) {
	blk, ok := n.stmt.(*ast.BlockStmt)
	switch {
	case n.stmt == nil || (n.inner == nil && !ok):
	case hasEscapingReturn(n.stmt):
		lw.failReturn(n, what)
		return body{}, false
	case !lw.checkDefaultNone(n, n.stmt):
		return body{}, false
	case n.inner == nil:
		return lw.blockText(blk), true
	default:
		text := lw.capture(func() { lw.lower(n.inner) })
		if len(text) >= 2 && text[0] == '{' && text[len(text)-1] == '}' {
			return body{text: text[1 : len(text)-1], scratch: true, orig: lw.indentOf(n.inner.start) + 1}, lw.err == nil
		}
	}
	lw.fail(n, "directive must immediately precede a { … } block")
	return body{}, false
}

// blockText returns the inside of blk.
func (lw *lowerer) blockText(blk *ast.BlockStmt) body {
	return body{from: lw.off(blk.Lbrace + 1), to: lw.off(blk.Rbrace), cur: lw.cur, orig: lw.indentOf(lw.off(blk.Lbrace)) + 1}
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
