package core

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"iter"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Layout: the lowering lays out its output itself, so nothing re-parses or
// reprints the file it produces — the paper's preprocessor
// splices replacement text into the token stream the same way.
//
// Three things make that possible. Generated text is written through an
// emitter that indents each line by brace depth, the way gofmt does for the
// shapes the generators produce. The user's statements are copied with
// their indentation shifted by the difference between the depth of the
// block they came from and the depth they land at, which is all gofmt would
// change about them if the input was already in gofmt layout. And the few
// user expressions printed in a new context — loop bounds inside int64(…),
// clause expressions inside call arguments — are printed by exprPrinter,
// which spaces binary operators by gofmt's precedence and depth rules.
//
// Every byte of the output is written once, into one buffer per file. A
// directive nested in a block is lowered where the enclosing construct's
// copy of that block reaches it, with its generated lines indented at the
// depth the block lands at — the shift an enclosing copy would otherwise
// apply to its text afterwards. Only text that is written more than once
// (an unrolled body) or inspected before it is placed (a construct stacked
// under another) is lowered into a scratch buffer first, and scratch
// buffers are reused.
//
// The contract: output is in gofmt layout whenever the input is, and a
// gofmt-clean input comes out exactly as gofmt would lay out the lowered
// file. An input that is not gofmt-clean keeps its own layout around the
// generated code, as any preprocessor that splices rather than reprints
// leaves it; nothing checks which of the two an input is. Either way, tidy
// drops trailing blanks and squeezes runs of empty lines.
//
// What the emitter cannot lay out by those rules sets unit.reformat, and
// settle then runs format.Source over the output instead: multi-line raw
// strings and /* */ comments (their lines must not move), renamed text that
// gofmt aligns against its neighbours, expressions spanning lines or holding
// comments, an inserted import with no empty line after it, and form feeds
// and the like.

// emitter writes lowered text into one buffer: the file's output, or a
// scratch buffer. Outside any section (below) it copies source text as it
// is; generated lines are indented by brace depth.
type emitter struct {
	out   []byte
	depth int  // indentation of generated lines, in tabs
	bol   bool // nothing is written on the current line yet
	last  byte // the last byte generated text wrote on the current line
	bad   bool // a line would have gone left of column one
	// secs are the user sections in progress, innermost last.
	secs []section
}

// section is user text being copied in: text of the source file whose
// lines sit at indentation orig there lands at depth, keeping the lines'
// indentation relative to each other. The rest of the line the text starts
// in the middle of (what follows a block's '{') is written where the
// emitter stands. A line's leading white space is held back until the line
// shows content — a blank line is written empty — so state says how far
// the current line has got.
type section struct {
	depth, orig  int
	state        byte // onFirstLine, inIndent or pastIndent
	tabs, spaces int  // the held-back leading tabs, then blanks (inIndent)
}

const (
	onFirstLine byte = iota // on the text's first line, before its content
	inIndent                // on a later line, before its content
	pastIndent              // past the current line's leading white space
)

func (e *emitter) indent(depth int) {
	if depth < 0 {
		e.bad, depth = true, 0
	}
	for range depth {
		e.out = append(e.out, '\t')
	}
}

// sec returns the innermost section, or nil outside any.
func (e *emitter) sec() *section {
	if len(e.secs) == 0 {
		return nil
	}
	return &e.secs[len(e.secs)-1]
}

// begin starts a section of user text at the current depth.
func (e *emitter) begin(orig int) {
	e.secs = append(e.secs, section{depth: e.depth, orig: orig})
}

// end closes the innermost section; white space it held back is dropped.
func (e *emitter) end() {
	e.secs = e.secs[:len(e.secs)-1]
	e.last = 0
}

// open prepares the current line for content: a line of user text gets the
// indentation its section gives it, a fresh line of generated code its
// depth — one level out when the content closes a block.
func (e *emitter) open(closing bool) {
	if s := e.sec(); s != nil && s.state != pastIndent {
		e.resolve(len(e.secs) - 1)
	} else if e.bol {
		if closing {
			e.depth--
		}
		e.indent(e.depth)
	}
	e.bol = false
}

// resolve writes the leading white space section i held back on the
// current line, which turned out to hold content. Content on a section's
// first line is written where the emitter stands: at the line's indentation
// when nothing else is on it, else on the line of the section around it
// when that one is still held back (a construct that opens with its body).
func (e *emitter) resolve(i int) {
	s := &e.secs[i]
	switch s.state {
	case onFirstLine:
		if i > 0 && e.secs[i-1].state != pastIndent {
			e.resolve(i - 1)
		} else if e.bol {
			e.indent(s.depth)
		}
	case inIndent:
		e.indent(s.depth + s.tabs - s.orig)
		for range s.spaces {
			e.out = append(e.out, ' ')
		}
	}
	s.state = pastIndent
}

// code writes generated Go: lines broken by "\n", never indented. A line
// that starts with '}' is one level out, and the line after one that ends
// with '{' is one level in — every shape the generators write.
func (e *emitter) code(s string) { emitCode(e, s) }

// put writes the concatenation of parts as code would: code lays text out
// line by line, so writing it in pieces writes the same bytes.
func (e *emitter) put(parts ...string) {
	for _, s := range parts {
		emitCode(e, s)
	}
}

// num writes a decimal integer of generated Go.
func (e *emitter) num(v int64) {
	var b [20]byte
	emitCode(e, strconv.AppendInt(b[:0], v, 10))
}

// quote writes s as a Go string literal.
func (e *emitter) quote(s string) {
	var b [64]byte
	emitCode(e, strconv.AppendQuote(b[:0], s))
}

// WriteString is code, for what writes to the emitter or to a printer.
func (e *emitter) WriteString(s string) { emitCode(e, s) }

func emitCode[S ~string | ~[]byte](e *emitter, s S) {
	for {
		i := indexByte(s, '\n')
		line := s
		if i >= 0 {
			line = s[:i]
		}
		if len(line) > 0 {
			e.open(line[0] == '}')
			e.out = append(e.out, line...)
			e.last = line[len(line)-1]
		}
		if i < 0 {
			return
		}
		if e.last == '{' {
			e.depth++
		}
		e.out = append(e.out, '\n')
		e.bol, e.last, s = true, 0, s[i+1:]
		if s := e.sec(); s != nil {
			s.state = pastIndent // the line held back is blank; the next is generated
		}
	}
}

// emitText writes text of the source file (or text already lowered from
// it): as it is outside any section, else laid out by the innermost one. A
// line that starts inside a raw string is part of the string and is copied
// as it is. The text never starts or ends inside a token.
func emitText[S ~string | ~[]byte](e *emitter, t S) {
	if len(e.secs) == 0 {
		e.out = append(e.out, t...)
		return
	}
	s := e.sec()
	raw, lit := indexByte(t, '`') >= 0, byte(0)
	for len(t) > 0 {
		if s.state != pastIndent {
			i := 0
			for ; i < len(t); i++ {
				c := t[i]
				if s.state == inIndent && c == '\t' && s.spaces == 0 {
					s.tabs++
				} else if s.state == inIndent && c == ' ' {
					s.spaces++
				} else if s.state == inIndent || c != ' ' && c != '\t' {
					break
				}
			}
			if t = t[i:]; len(t) == 0 {
				return
			}
			if t[0] != '\n' {
				e.resolve(len(e.secs) - 1)
				e.bol = false
			}
		}
		i := indexByte(t, '\n')
		if i < 0 {
			e.out = append(e.out, t...)
			return
		}
		e.out = append(e.out, t[:i+1]...)
		if raw && endsInRaw(&lit, t[:i+1]) {
			e.bol, t = false, t[i+1:]
			continue // s.state stays pastIndent: the next line is the string's
		}
		e.bol, t = true, t[i+1:]
		s.state, s.tabs, s.spaces = inIndent, 0, 0
	}
}

// endsInRaw scans one line of Go text, ending in '\n', from lexical state
// *lit (0 in code, else the quote that opened the literal it is inside, or
// '*' in a block comment), and reports whether the line ends inside a raw
// string.
func endsInRaw[S ~string | ~[]byte](lit *byte, line S) bool {
	for j := 0; j < len(line); j++ {
		c, next := line[j], line[min(j+1, len(line)-1)]
		switch *lit {
		case 0:
			switch {
			case c == '"' || c == '\'' || c == '`':
				*lit = c
			case c == '/' && next == '/':
				return false
			case c == '/' && next == '*':
				*lit, j = '*', j+1
			}
		case '*':
			if c == '*' && next == '/' {
				*lit, j = 0, j+1
			}
		case '`':
			if c == '`' {
				*lit = 0
			}
		default:
			if c == '\\' {
				j++
			} else if c == *lit {
				*lit = 0
			}
		}
	}
	return *lit == '`'
}

func indexByte[S ~string | ~[]byte](s S, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}

// body is the user text a construct runs — the inside of its block —
// written when the construct's generated code reaches it: a source range
// whose directives are lowered on the way, the lowering of a directive, or
// text lowered into a scratch buffer beforehand. Its lines sit at
// indentation orig in the source: the content of a block sits one level in
// from the line that opens it.
type body struct {
	from, to int
	cur      *node  // whose Subdirectives the source range holds
	sub      *node  // or: the directive to lower in its place
	text     []byte // or: the text, when scratch is set
	scratch  bool
	orig     int
}

// user writes b at the current depth.
func (lw *lowerer) user(b body) {
	e := lw.e
	e.begin(b.orig)
	switch {
	case b.sub != nil:
		lw.lower(b.sub)
	case b.scratch:
		emitText(e, b.text)
	default:
		defer lw.leave(lw.enter(b.cur))
		lw.render(b.from, b.to)
	}
	e.end()
}

// capture runs f with the lowering writing into a scratch buffer, which it
// returns; release hands the buffer back once its text is written. The
// scratch emitter is kept for the next capture.
func (lw *lowerer) capture(f func()) []byte {
	e, s := lw.e, lw.spareE
	if s == nil {
		s = &emitter{}
	}
	*s = emitter{out: lw.spare, secs: s.secs[:0]}
	lw.e, lw.spare, lw.spareE = s, nil, nil
	f()
	out := s.out
	lw.reformat = lw.reformat || s.bad
	lw.e, lw.spareE, s.out = e, s, nil
	return out
}

func (lw *lowerer) release(buf []byte) {
	if cap(buf) > cap(lw.spare) {
		lw.spare = buf[:0]
	}
}

// materialize lowers b into a scratch buffer, for text written more than
// once.
func (lw *lowerer) materialize(b body) body {
	if b.scratch {
		return b
	}
	b.text = lw.capture(func() {
		defer lw.leave(lw.enter(b.cur))
		lw.render(b.from, b.to)
	})
	b.scratch = true
	return b
}

// text returns src[from:to] lowered, for text that is printed inside
// generated code rather than laid out as statements.
func (lw *lowerer) text(from, to int) string {
	buf := lw.capture(func() { lw.render(from, to) })
	s := string(buf)
	lw.release(buf)
	return s
}

// closure writes a function literal with signature head around stmts as
// gofmt does: on one line when head and statements fit gofmt's 100-column
// budget for a one-line function body, else as a block.
func closure(head string, stmts ...string) string {
	size := len(head) + 2*(len(stmts)-1)
	for _, s := range stmts {
		size += len(s)
	}
	if size <= 100 && !slices.ContainsFunc(stmts, func(s string) bool { return strings.Contains(s, "\n") }) {
		return head + " { " + strings.Join(stmts, "; ") + " }"
	}
	return head + " {\n" + strings.Join(stmts, "\n") + "\n}"
}

// indentOf returns the indentation, in tabs, of the source line holding off.
func (u *unit) indentOf(off int) int {
	i := bytes.LastIndexByte(u.src[:off], '\n') + 1
	n := 0
	for i+n < len(u.src) && u.src[i+n] == '\t' {
		n++
	}
	return n
}

// tidy drops trailing blanks and squeezes each run of empty lines into one,
// in place: where a directive left its line empty or a block's braces were
// replaced, gofmt keeps at most one empty line — and none at either end of
// the file.
func tidy(b []byte) []byte {
	out, empty := b[:0], true
	for len(b) > 0 {
		line, rest, more := bytes.Cut(b, []byte("\n"))
		line = bytes.TrimRight(line, " \t")
		b = rest
		if len(line) == 0 && empty && more {
			continue
		}
		empty = len(line) == 0
		out = append(out, line...)
		if more {
			out = append(out, '\n')
		}
	}
	for bytes.HasSuffix(out, []byte("\n\n")) {
		out = out[:len(out)-1]
	}
	return out
}

// ------------------------------------------------------------- checks

// hasComment reports whether a comment starts in src[from:to].
func (u *unit) hasComment(from, to int) bool {
	for range u.comments(from, to) {
		return true
	}
	return false
}

// comments yields the comments that start in src[from:to], in order.
func (u *unit) comments(from, to int) iter.Seq[*ast.Comment] {
	return func(yield func(*ast.Comment) bool) {
		cs := u.file.Comments
		i := sort.Search(len(cs), func(i int) bool { return u.off(cs[i].End()) > from })
		for ; i < len(cs) && u.off(cs[i].Pos()) < to; i++ {
			for _, c := range cs[i].List {
				if o := u.off(c.Pos()); o >= from && o < to && !yield(c) {
					return
				}
			}
		}
	}
}

// edited notes that the source line holding off now reads differently —
// renamed, or replaced up to a directive's end. gofmt lays such a line out
// alone unless it sits in an alignment section: inside a struct or
// interface type, a key of a composite literal, a one-line function body
// (whose size decides whether it stays on one line), or next to another
// line whose trailing comment aligns with this line's. The output line
// above it is the source line above the one holding top: a directive
// replaced by one line takes its pragma's line with it.
func (u *unit) edited(off, top int) {
	if u.reformat {
		return
	}
	for _, r := range u.aligned {
		if r[0] <= off && off < r[1] {
			u.reformat = true
			return
		}
	}
	line := u.tf.Line(u.tf.Pos(off))
	if i := sort.SearchInts(u.trailing, line); i == len(u.trailing) || u.trailing[i] != line {
		return
	}
	depth := u.indentOf(off)
	for _, step := range []int{-1, 1} {
		l := line + 1
		if step < 0 {
			l = u.tf.Line(u.tf.Pos(top)) - 1
		}
		for ; l >= 1 && l <= u.tf.LineCount(); l += step {
			start := u.off(u.tf.LineStart(l))
			if start >= len(u.src) || u.src[start] == '\n' {
				break // an empty line ends the section
			}
			if d := u.indentOf(start); d < depth {
				break
			} else if d == depth {
				if i := sort.SearchInts(u.trailing, l); i < len(u.trailing) && u.trailing[i] == l {
					u.reformat = true
					return
				}
				break
			}
		}
	}
}

// multiLineRaw reports whether the file holds a raw string spanning lines:
// gofmt keeps its lines where they are, so shifting or squeezing them would
// change the program.
func (u *unit) multiLineRaw() bool {
	if bytes.IndexByte(u.src, '`') < 0 {
		return false
	}
	found := false
	ast.Inspect(u.file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.IndexByte(lit.Value, '\n') >= 0 {
			found = true
		}
		return !found
	})
	return found
}

// fallbacks counts the outputs settle handed to format.Source.
var fallbacks atomic.Int64

// settle returns the lowered file out, laid out as the Layout comment says.
// It is the only function of this package that uses go/format. Unless the
// lowering flagged text it could not lay out itself, out is the lowering's
// own layout, tidied; otherwise format.Source lays out the output.
func (u *unit) settle(out []byte) ([]byte, error) {
	if !u.reformat {
		return tidy(out), nil
	}
	fallbacks.Add(1)
	// gofmt is not idempotent on every input (comments in odd places move
	// once more on a second pass); iterate until the layout holds.
	for range 4 {
		formatted, err := format.Source(out)
		if err != nil {
			return nil, fmt.Errorf("preprocess: generated code does not parse: %v", err)
		}
		if bytes.Equal(formatted, out) {
			return out, nil
		}
		out = formatted
	}
	return nil, fmt.Errorf("preprocess: generated code has no stable gofmt layout")
}

// ---------------------------------------------------------- expressions

// exprPrinter prints an expression on one line as gofmt would in a given
// context: binary operators are spaced by precedence and nesting depth
// (go/printer's binaryExpr rules), and parentheses around a parenthesised
// expression are dropped. The expression mixes generated nodes (no
// position) with subtrees of the file, whose identifiers take the renames
// in force; a clause expression is parsed on its own, and its identifiers
// are renamed by name. Anything it does not lay out exactly like gofmt —
// literals of functions, composites and types with bodies, a subtree of the
// file spanning lines or holding a comment — sets bad. It prints into the
// lowerer's reusable buffer (printer, done).
type exprPrinter struct {
	buf    []byte
	last   token.Token // the operator just written, if nothing followed it
	lw     *lowerer
	clause bool // a clause expression, not part of the file
	inFile bool // inside a subtree of the file, already checked
	bad    bool
}

// printer returns a printer writing into the lowerer's spare buffer, which
// it holds until done: a printer started while another prints (the text of
// a function literal lowers what is nested in it) gets a buffer of its own.
func (lw *lowerer) printer(clause bool) exprPrinter {
	p := exprPrinter{buf: lw.pbuf[:0], lw: lw, clause: clause}
	lw.pbuf = nil
	return p
}

// done hands the printer's buffer back for the next one.
func (p *exprPrinter) done() {
	if cap(p.buf) > cap(p.lw.pbuf) {
		p.lw.pbuf = p.buf[:0]
	}
}

// expr writes x where the emitter stands, as gofmt prints it at depth (1
// for a statement's own expressions; one more inside each call of several
// arguments, binary right operand or index).
func (lw *lowerer) expr(x ast.Expr, depth int) {
	p := lw.printer(false)
	p.run(x, depth)
	p.end()
}

// clause writes a clause's host expression printed at depth, with the
// file's threadprivate variables replaced by their accessors as they are
// everywhere else.
func (lw *lowerer) clause(s string, depth int) {
	p := lw.printer(true)
	if p.run(lw.clauseExpr(s), depth); p.bad {
		p.buf = append(p.buf[:0], lw.rawClause(s)...)
	}
	p.end()
}

// rawClause is s with the threadprivate variables replaced and nothing
// else touched, for format.Source to lay out. clause asks for it only for
// an s that clauseExpr parsed and the printer could not lay out, so s
// parses.
func (lw *lowerer) rawClause(s string) string {
	fset := token.NewFileSet()
	e, _ := parser.ParseExprFrom(fset, "", s, 0)
	tf := fset.File(e.Pos())
	var out []splice
	for v, access := range lw.tpVars {
		for _, off := range identOffsets(tf, e, v) {
			out = append(out, splice{off: off, end: off + len(v), text: access})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].off > out[j].off })
	for _, sp := range out {
		s = s[:sp.off] + sp.text + s[sp.end:]
	}
	return s
}

func (p *exprPrinter) run(e ast.Expr, depth int) {
	p.expr1(e, token.LowestPrec, depth)
	p.lw.reformat = p.lw.reformat || p.bad
}

// clauseExpr parses a clause's raw host expression. One that does not parse
// is kept as text: format.Source then reports the generated file.
func (lw *lowerer) clauseExpr(s string) ast.Expr {
	if simpleOperand(s) {
		return &ast.Ident{Name: s}
	}
	e, err := parser.ParseExpr(s)
	if err != nil || strings.Contains(s, "/") && (strings.Contains(s, "//") || strings.Contains(s, "/*")) {
		lw.reformat = true
		return &ast.Ident{Name: s}
	}
	return e
}

// simpleOperand reports whether s is an identifier or a decimal literal
// gofmt leaves as it is.
func simpleOperand(s string) bool {
	if s == "" || s[0] == '0' && len(s) > 1 {
		return false
	}
	digits := s[0] >= '0' && s[0] <= '9'
	for _, c := range []byte(s) {
		if !(c >= '0' && c <= '9' || !digits && (c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z')) {
			return false
		}
	}
	return true
}

// ident returns what x prints as: its rename in force, or its name.
func (p *exprPrinter) ident(x *ast.Ident) string {
	lw := p.lw
	switch {
	case p.clause:
		if access, ok := lw.tpVars[x.Name]; ok {
			return access
		}
	case x.Pos().IsValid() && len(lw.renames) > 0:
		off := lw.off(x.Pos())
		rens := lw.renames
		if i := sort.Search(len(rens), func(i int) bool { return rens[i].off >= off }); i < len(rens) && rens[i].off == off && rens[i].end == off+len(x.Name) {
			return lw.spliced(rens[i])
		}
	}
	return x.Name
}

// A generated tree never starts with a subtree of the file, so a node with a
// position is one.
func (p *exprPrinter) expr1(expr ast.Expr, prec1, depth int) {
	if !p.clause && !p.inFile && expr.Pos().IsValid() {
		lw := p.lw
		if lw.tf.Line(expr.Pos()) != lw.tf.Line(expr.End()) || lw.hasComment(lw.off(expr.Pos()), lw.off(expr.End())) {
			p.bad = true
		}
		p.inFile = true
		defer func() { p.inFile = false }()
	}
	switch x := expr.(type) {
	case *ast.Ident:
		p.WriteString(p.ident(x))
	case *ast.BasicLit:
		p.basicLit(x)
	case *ast.BinaryExpr:
		p.binary(x, prec1, cutoff(x, depth), depth)
	case *ast.StarExpr:
		if token.UnaryPrec < prec1 {
			p.WriteByte('(')
			p.op(token.MUL)
			p.expr1(x.X, token.LowestPrec, 1)
			p.WriteByte(')')
		} else {
			p.op(token.MUL)
			p.expr1(x.X, token.LowestPrec, 1)
		}
	case *ast.UnaryExpr:
		if token.UnaryPrec < prec1 {
			p.WriteByte('(')
			p.expr1(x, token.LowestPrec, 1)
			p.WriteByte(')')
		} else {
			p.op(x.Op)
			p.expr1(x.X, token.UnaryPrec, depth)
		}
	case *ast.ParenExpr:
		if id, ok := x.X.(*ast.Ident); ok && strings.HasPrefix(p.ident(id), "(") {
			p.WriteString(p.ident(id)) // a threadprivate accessor, parenthesised already
		} else if _, ok := x.X.(*ast.ParenExpr); ok {
			p.expr1(x.X, token.LowestPrec, depth) // gofmt drops doubled parentheses
		} else {
			p.WriteByte('(')
			p.expr1(x.X, token.LowestPrec, reduceDepth(depth))
			p.WriteByte(')')
		}
	case *ast.SelectorExpr:
		p.expr1(x.X, token.HighestPrec, depth)
		p.WriteByte('.')
		p.WriteString(x.Sel.Name)
	case *ast.TypeAssertExpr:
		p.expr1(x.X, token.HighestPrec, depth)
		p.WriteString(".(")
		if x.Type != nil {
			p.expr1(x.Type, token.LowestPrec, 1)
		} else {
			p.WriteString("type")
		}
		p.WriteByte(')')
	case *ast.IndexExpr:
		p.expr1(x.X, token.HighestPrec, 1)
		p.WriteByte('[')
		p.expr1(x.Index, token.LowestPrec, depth+1)
		p.WriteByte(']')
	case *ast.IndexListExpr:
		p.expr1(x.X, token.HighestPrec, 1)
		p.WriteByte('[')
		p.list(x.Indices, depth+1)
		p.WriteByte(']')
	case *ast.SliceExpr:
		p.slice(x, depth)
	case *ast.CallExpr:
		if len(x.Args) > 1 {
			depth++
		}
		switch x.Fun.(type) {
		case *ast.FuncType, *ast.ChanType:
			p.bad = true // conversions gofmt parenthesises
		}
		p.expr1(x.Fun, token.HighestPrec, depth)
		p.WriteByte('(')
		p.list(x.Args, depth)
		if x.Ellipsis.IsValid() {
			p.WriteString("...")
		}
		p.WriteByte(')')
	case *ast.Ellipsis:
		p.WriteString("...")
		if x.Elt != nil {
			p.expr1(x.Elt, token.LowestPrec, 1)
		}
	case *ast.ArrayType:
		p.WriteByte('[')
		if x.Len != nil {
			p.expr1(x.Len, token.LowestPrec, 1)
		}
		p.WriteByte(']')
		p.expr1(x.Elt, token.LowestPrec, 1)
	case *ast.MapType:
		p.WriteString("map[")
		p.expr1(x.Key, token.LowestPrec, 1)
		p.WriteByte(']')
		p.expr1(x.Value, token.LowestPrec, 1)
	case *ast.ChanType:
		switch x.Dir {
		case ast.SEND | ast.RECV:
			p.WriteString("chan ")
		case ast.RECV:
			p.WriteString("<-chan ")
		case ast.SEND:
			p.WriteString("chan<- ")
		}
		p.expr1(x.Value, token.LowestPrec, 1)
	default: // function and composite literals, struct and interface types
		p.bad = true
		if !p.clause { // as written, for format.Source to lay out
			p.WriteString(p.lw.text(p.lw.off(x.Pos()), p.lw.off(x.End())))
		}
	}
}

// op writes an operator, separated by a blank from an operator just before
// it when the two would scan as one token (or open a comment), as go/printer
// does.
func (p *exprPrinter) op(tok token.Token) {
	s := tok.String()
	switch p.last {
	case token.ADD, token.SUB:
		if s[0] == p.last.String()[0] {
			p.WriteByte(' ')
		}
	case token.QUO:
		if s[0] == '*' {
			p.WriteByte(' ')
		}
	case token.LSS:
		if s[0] == '-' || s[0] == '<' {
			p.WriteByte(' ')
		}
	case token.AND:
		if s[0] == '&' || s[0] == '^' {
			p.WriteByte(' ')
		}
	}
	p.WriteString(s)
	p.last = tok
}

// WriteString, WriteByte, put and num write anything but an operator.
func (p *exprPrinter) WriteString(s string) {
	p.buf = append(p.buf, s...)
	p.last = token.ILLEGAL
}

func (p *exprPrinter) WriteByte(c byte) error {
	p.buf = append(p.buf, c)
	p.last = token.ILLEGAL
	return nil
}

func (p *exprPrinter) put(parts ...string) {
	for _, s := range parts {
		p.WriteString(s)
	}
}

func (p *exprPrinter) num(v int64) {
	p.buf = strconv.AppendInt(p.buf, v, 10)
	p.last = token.ILLEGAL
}

// text returns what the printer wrote, for text that is kept, and end
// writes it where the emitter stands and hands the buffer back: the two
// ways a printer that wrote generated text around expressions finishes.
func (p *exprPrinter) text() string {
	p.lw.reformat = p.lw.reformat || p.bad
	return string(p.buf)
}

func (p *exprPrinter) end() {
	p.lw.reformat = p.lw.reformat || p.bad
	emitCode(p.lw.e, p.buf)
	p.done()
}

func (p *exprPrinter) basicLit(x *ast.BasicLit) {
	v := x.Value
	switch x.Kind {
	case token.STRING:
		p.bad = p.bad || strings.IndexByte(v, '\n') >= 0
	case token.INT, token.FLOAT, token.IMAG:
		// gofmt lower-cases prefixes and exponents and trims the leading
		// zeros of an integer imaginary literal; leave any such to it.
		p.bad = p.bad || strings.ContainsAny(v, "XEPOB") ||
			x.Kind == token.IMAG && len(v) > 2 && v[0] == '0' && (v[1] == '_' || v[1] >= '0' && v[1] <= '9') && !strings.ContainsAny(v, ".e")
	}
	p.WriteString(v)
}

func (p *exprPrinter) list(xs []ast.Expr, depth int) {
	for i, x := range xs {
		if i > 0 {
			p.WriteString(", ")
		}
		p.expr1(x, token.LowestPrec, depth)
	}
}

func (p *exprPrinter) slice(x *ast.SliceExpr, depth int) {
	p.expr1(x.X, token.HighestPrec, 1)
	p.WriteByte('[')
	indices := []ast.Expr{x.Low, x.High}
	if x.Max != nil {
		indices = append(indices, x.Max)
	}
	// gofmt spaces the colons of a slice with two or more indices, one of
	// them binary, at depth 1.
	blanks := false
	if depth <= 1 {
		n, binary := 0, false
		for _, i := range indices {
			if i != nil {
				n++
				_, isBin := i.(*ast.BinaryExpr)
				binary = binary || isBin
			}
		}
		blanks = n > 1 && binary
	}
	for i, ix := range indices {
		if i > 0 {
			if indices[i-1] != nil && blanks {
				p.WriteByte(' ')
			}
			p.WriteByte(':')
			if ix != nil && blanks {
				p.WriteByte(' ')
			}
		}
		if ix != nil {
			p.expr1(ix, token.LowestPrec, depth+1)
		}
	}
	p.WriteByte(']')
}

// binary prints x with blanks around its operator when its precedence is
// below cut, the cutoff gofmt chose for the whole binary expression.
func (p *exprPrinter) binary(x *ast.BinaryExpr, prec1, cut, depth int) {
	prec := x.Op.Precedence()
	if prec < prec1 { // only a generated tree can need these
		p.WriteByte('(')
		p.expr1(x, token.LowestPrec, reduceDepth(depth))
		p.WriteByte(')')
		return
	}
	blank := prec < cut
	p.expr1(x.X, prec, depth+diffPrec(x.X, prec))
	if blank {
		p.WriteByte(' ')
	}
	p.op(x.Op)
	if blank {
		p.WriteByte(' ')
	}
	p.expr1(x.Y, prec+1, depth+1)
}

// cutoff is gofmt's choice of the precedence below which a binary
// expression's operators get blanks: a mix of levels 4 and 5 spaces level 4
// only at depth 1 and nothing deeper; a single level spaces everything at
// depth 1 and nothing deeper; operators that would fuse with a unary
// operand force blanks.
func cutoff(e *ast.BinaryExpr, depth int) int {
	has4, has5, problem := walkBinary(e)
	switch {
	case problem > 0:
		return problem + 1
	case has4 && has5 && depth == 1:
		return 5
	case depth == 1:
		return 6
	}
	return 4
}

// walkBinary scans the operators of e that print without parentheses.
func walkBinary(e *ast.BinaryExpr) (has4, has5 bool, problem int) {
	switch e.Op.Precedence() {
	case 4:
		has4 = true
	case 5:
		has5 = true
	}
	if l, ok := e.X.(*ast.BinaryExpr); ok && l.Op.Precedence() >= e.Op.Precedence() {
		h4, h5, mp := walkBinary(l)
		has4, has5, problem = has4 || h4, has5 || h5, max(problem, mp)
	}
	switch r := e.Y.(type) {
	case *ast.BinaryExpr:
		if r.Op.Precedence() > e.Op.Precedence() {
			h4, h5, mp := walkBinary(r)
			has4, has5, problem = has4 || h4, has5 || h5, max(problem, mp)
		}
	case *ast.StarExpr:
		if e.Op == token.QUO { // `/*`
			problem = 5
		}
	case *ast.UnaryExpr:
		switch e.Op.String() + r.Op.String() {
		case "/*", "&&", "&^":
			problem = 5
		case "++", "--":
			problem = max(problem, 4)
		}
	}
	return
}

func diffPrec(x ast.Expr, prec int) int {
	if b, ok := x.(*ast.BinaryExpr); ok && b.Op.Precedence() == prec {
		return 0
	}
	return 1
}

func reduceDepth(depth int) int { return max(depth-1, 1) }

// Generated expression trees.

func ident(name string) *ast.Ident { return &ast.Ident{Name: name} }

func call(fun string, args ...ast.Expr) *ast.CallExpr {
	return &ast.CallExpr{Fun: ident(fun), Args: args}
}

func paren(x ast.Expr) *ast.ParenExpr { return &ast.ParenExpr{X: x} }

func binary(x ast.Expr, op token.Token, y ast.Expr) *ast.BinaryExpr {
	return &ast.BinaryExpr{X: x, Op: op, Y: y}
}

func intLit(v int64) ast.Expr {
	if v < 0 {
		return &ast.UnaryExpr{Op: token.SUB, X: intLit(-v)}
	}
	return &ast.BasicLit{Kind: token.INT, Value: strconv.FormatInt(v, 10)}
}
