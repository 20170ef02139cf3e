package core

import (
	"fmt"
	"strconv"
	"strings"
)

// parser consumes the token stream of one pragma. Its central primitive is
// eatToken, the paper's modified accessor: it "accept[s] both existing and
// new tags, and parse[s] the identifier tag accordingly if an OpenMP keyword
// tag was used" — keywords reach the parser as identifiers and are
// recognised through the keyword hash map, never reserved.
type dirParser struct {
	toks []Token
	pos  int
}

// eatToken returns the next token and advances iff it matches tag; otherwise
// nil. For keyword tags the match is "identifier whose spelling maps to the
// tag"; for ordinary tags it is tag equality.
func (p *dirParser) eatToken(tag TokenTag) *Token {
	tok := &p.toks[p.pos]
	if tag > tokKeywordBase {
		if tok.Tag == TokIdent && keywordTags[tok.Text] == tag {
			p.pos++
			return tok
		}
		return nil
	}
	if tok.Tag == tag {
		p.pos++
		return tok
	}
	return nil
}

func (p *dirParser) peek() *Token { return &p.toks[p.pos] }

func (p *dirParser) expect(tag TokenTag, what string) (*Token, error) {
	if tok := p.eatToken(tag); tok != nil {
		return tok, nil
	}
	return nil, fmt.Errorf("pragma: expected %s, found %s", what, *p.peek())
}

// ParseDirective tokenises and parses one pragma's text (sentinel already
// stripped) into a Directive.
func ParseDirective(text string) (*Directive, error) {
	d := &Directive{}
	if err := parseDirective(d, text); err != nil {
		return nil, err
	}
	return d, nil
}

// parseDirective is ParseDirective into d, which is zero.
func parseDirective(d *Directive, text string) error {
	// The tokens of all but the longest pragmas stay on the stack.
	var buf [32]Token
	p := &dirParser{toks: tokenize(buf[:0], text)}

	switch {
	case p.eatToken(TokParallel) != nil:
		if p.eatToken(TokFor) != nil {
			d.Kind = DirParallelFor
		} else {
			d.Kind = DirParallel
		}
	case p.eatToken(TokFor) != nil:
		d.Kind = DirFor
	case p.eatToken(TokSections) != nil:
		d.Kind = DirSections
	case p.eatToken(TokSection) != nil:
		d.Kind = DirSection
	case p.eatToken(TokSingle) != nil:
		d.Kind = DirSingle
	case p.eatToken(TokMaster) != nil, p.eatToken(TokMasked) != nil:
		d.Kind = DirMaster
	case p.eatToken(TokCritical) != nil:
		d.Kind = DirCritical
		if p.eatToken(TokLParen) != nil {
			name, err := p.expect(TokIdent, "critical section name")
			if err != nil {
				return err
			}
			d.Clauses.setRare().Name = name.Text
			if _, err := p.expect(TokRParen, "')'"); err != nil {
				return err
			}
		}
	case p.eatToken(TokBarrier) != nil:
		d.Kind = DirBarrier
	case p.eatToken(TokAtomic) != nil:
		d.Kind = DirAtomic
	case p.eatToken(TokTaskwait) != nil:
		d.Kind = DirTaskwait
	case p.eatToken(TokTaskyield) != nil:
		d.Kind = DirTaskyield
	case p.eatToken(TokTaskgroup) != nil:
		d.Kind = DirTaskgroup
	case p.eatToken(TokTaskloop) != nil:
		d.Kind = DirTaskloop
	case p.eatToken(TokTask) != nil:
		d.Kind = DirTask
	case p.eatToken(TokCancel) != nil:
		d.Kind = DirCancel
		kind, err := p.parseCancelKind("cancel")
		if err != nil {
			return err
		}
		d.Clauses.setRare().Cancel = kind
	case p.eatToken(TokCancellation) != nil:
		if p.eatToken(TokPoint) == nil {
			return fmt.Errorf("pragma: expected 'point' after 'cancellation', found %s", *p.peek())
		}
		d.Kind = DirCancellationPoint
		kind, err := p.parseCancelKind("cancellation point")
		if err != nil {
			return err
		}
		d.Clauses.setRare().Cancel = kind
	case p.eatToken(TokOrdered) != nil:
		d.Kind = DirOrdered
	case p.eatToken(TokTile) != nil:
		d.Kind = DirTile
	case p.eatToken(TokUnroll) != nil:
		d.Kind = DirUnroll
	case p.eatToken(TokThreadPrivate) != nil:
		d.Kind = DirThreadPrivate
		r := d.Clauses.setRare()
		if err := p.parseIdentList(func(v string) { r.ThreadPrivateVars = append(r.ThreadPrivateVars, v) }); err != nil {
			return err
		}
	case p.eatToken(TokFlush) != nil:
		return fmt.Errorf("pragma: the flush directive is not supported (Go's memory model provides no standalone fence; use atomic cells)")
	default:
		return fmt.Errorf("pragma: unknown directive at %s", *p.peek())
	}

	if err := p.parseClauses(d, text); err != nil {
		return err
	}
	return Validate(d)
}

// parseClauses consumes clause* until EOF. Clauses may be separated by
// commas or whitespace, as the OpenMP grammar allows. text is the pragma's,
// which raw expressions are sliced from.
func (p *dirParser) parseClauses(d *Directive, text string) error {
	c := &d.Clauses
	for {
		p.eatToken(TokComma) // optional separator
		if p.peek().Tag == TokEOF {
			return nil
		}
		switch {
		case p.eatToken(TokPrivate) != nil:
			if err := p.parseVarList(c, VarPrivate); err != nil {
				return err
			}
		case p.eatToken(TokFirstPrivate) != nil:
			if err := p.parseVarList(c, VarFirstPrivate); err != nil {
				return err
			}
		case p.eatToken(TokLastPrivate) != nil:
			if err := p.parseVarList(c, VarLastPrivate); err != nil {
				return err
			}
		case p.eatToken(TokShared) != nil:
			if err := p.parseVarList(c, VarShared); err != nil {
				return err
			}
		case p.eatToken(TokCopyPrivate) != nil:
			r := c.setRare()
			if err := p.parseIdentList(func(v string) { r.CopyPrivate = append(r.CopyPrivate, v) }); err != nil {
				return err
			}
		case p.eatToken(TokReduction) != nil:
			if err := p.parseReduction(c); err != nil {
				return err
			}
		case p.eatToken(TokSchedule) != nil:
			if err := p.parseSchedule(c); err != nil {
				return err
			}
		case p.eatToken(TokDefault) != nil:
			if err := p.parseDefault(c); err != nil {
				return err
			}
		case p.eatToken(TokCollapse) != nil:
			n, err := p.parseIntArg("collapse")
			if err != nil {
				return err
			}
			c.Collapse = int(n)
		case p.eatToken(TokNumThreads) != nil:
			expr, err := p.parseRawExpr(text, "num_threads")
			if err != nil {
				return err
			}
			c.NumThreads = expr
		case p.eatToken(TokIf) != nil:
			expr, err := p.parseRawExpr(text, "if")
			if err != nil {
				return err
			}
			c.If = expr
		case p.eatToken(TokNoWait) != nil:
			c.NoWait = true
		case p.eatToken(TokOrdered) != nil:
			c.Ordered = true
		case p.eatToken(TokFinal) != nil:
			expr, err := p.parseRawExpr(text, "final")
			if err != nil {
				return err
			}
			c.setRare().Final = expr
		case p.eatToken(TokUntied) != nil:
			c.setRare().Untied = true
		case p.eatToken(TokNoGroup) != nil:
			c.setRare().NoGroup = true
		case p.eatToken(TokGrainsize) != nil:
			n, err := p.parseIntArg("grainsize")
			if err != nil {
				return err
			}
			c.setRare().Grainsize = n
		case p.eatToken(TokNumTasks) != nil:
			n, err := p.parseIntArg("num_tasks")
			if err != nil {
				return err
			}
			c.setRare().NumTasks = n
		case p.eatToken(TokDepend) != nil:
			if err := p.parseDepend(c.setRare()); err != nil {
				return err
			}
		case p.eatToken(TokPriority) != nil:
			expr, err := p.parseRawExpr(text, "priority")
			if err != nil {
				return err
			}
			c.setRare().Priority = expr
		case p.eatToken(TokMergeable) != nil:
			c.setRare().Mergeable = true
		case p.eatToken(TokSizes) != nil:
			// At most one sizes clause (OpenMP 5.2 §9.4): concatenating
			// repeats would silently change the tile arity.
			r := c.setRare()
			if r.Sizes != nil {
				return fmt.Errorf("pragma: at most one sizes clause is permitted (OpenMP 5.2 §9.4)")
			}
			sizes, err := p.parseIntList("sizes")
			if err != nil {
				return err
			}
			r.Sizes = sizes
		case p.eatToken(TokFull) != nil:
			r := c.setRare()
			if r.Unroll != UnrollNone {
				return fmt.Errorf("pragma: unroll accepts at most one of full and partial (OpenMP 5.2 §9.5)")
			}
			r.Unroll = UnrollFull
		case p.eatToken(TokPartial) != nil:
			r := c.setRare()
			if r.Unroll != UnrollNone {
				return fmt.Errorf("pragma: unroll accepts at most one of full and partial (OpenMP 5.2 §9.5)")
			}
			r.Unroll = UnrollPartial
			// The factor is optional: bare partial leaves the choice to
			// the implementation (OpenMP 5.2 §9.5.2).
			if p.peek().Tag == TokLParen {
				n, err := p.parseIntArg("partial")
				if err != nil {
					return err
				}
				r.UnrollFactor = n
			}
		default:
			return fmt.Errorf("pragma: unknown clause at %s", *p.peek())
		}
	}
}

// parseCancelKind parses the construct-kind argument of cancel and
// cancellation point: parallel, for or taskgroup. The kinds OpenMP defines
// but this implementation does not lower (sections) are named explicitly in
// the error, mirroring the sections/taskloop clause rejections.
func (p *dirParser) parseCancelKind(dir string) (CancelEnum, error) {
	switch {
	case p.eatToken(TokParallel) != nil:
		return CancelParallel, nil
	case p.eatToken(TokFor) != nil:
		return CancelFor, nil
	case p.eatToken(TokTaskgroup) != nil:
		return CancelTaskgroup, nil
	case p.eatToken(TokSections) != nil:
		return CancelNone, fmt.Errorf("pragma: %s sections is not supported by this implementation", dir)
	}
	return CancelNone, fmt.Errorf("pragma: %s requires a construct kind (parallel, for, or taskgroup), found %s", dir, *p.peek())
}

// parseVarList parses the "( ident {, ident} )" of data-sharing clause k
// into c.Vars.
func (p *dirParser) parseVarList(c *Clauses, k VarClause) error {
	return p.parseIdentList(func(v string) { c.Vars = append(c.Vars, ListedVar{Name: v, Clause: k}) })
}

// parseIdentList parses "( ident {, ident} )", passing each to add.
func (p *dirParser) parseIdentList(add func(string)) error {
	if _, err := p.expect(TokLParen, "'('"); err != nil {
		return err
	}
	// Keywords are identifiers here: private(static) is legal, as the
	// paper requires ("in Zig keywords may not be used as identifiers,
	// and adding these would break compatibility").
	if err := p.parseNames("variable name", add); err != nil {
		return err
	}
	_, err := p.expect(TokRParen, "')'")
	return err
}

// parseNames parses "ident {, ident}", passing each to add; what names an
// identifier in the error for a missing one.
func (p *dirParser) parseNames(what string, add func(string)) error {
	for {
		id, err := p.expect(TokIdent, what)
		if err != nil {
			return err
		}
		add(id.Text)
		if p.eatToken(TokComma) == nil {
			return nil
		}
	}
}

// parseReduction parses "( op : ident {, ident} )".
func (p *dirParser) parseReduction(c *Clauses) error {
	if _, err := p.expect(TokLParen, "'('"); err != nil {
		return err
	}
	var op ReduceOp
	switch {
	case p.eatToken(TokPlus) != nil, p.eatToken(TokMinus) != nil:
		op = RedSum // OpenMP: the - operator reduces identically to +
	case p.eatToken(TokStar) != nil:
		op = RedProd
	case p.eatToken(TokMin) != nil:
		op = RedMin
	case p.eatToken(TokMax) != nil:
		op = RedMax
	case p.eatToken(TokAmpAmp) != nil:
		op = RedLogicalAnd
	case p.eatToken(TokAmp) != nil:
		op = RedBitAnd
	case p.eatToken(TokPipePipe) != nil:
		op = RedLogicalOr
	case p.eatToken(TokPipe) != nil:
		op = RedBitOr
	case p.eatToken(TokCaret) != nil:
		op = RedBitXor
	default:
		return fmt.Errorf("pragma: bad reduction operator at %s", *p.peek())
	}
	if _, err := p.expect(TokColon, "':'"); err != nil {
		return err
	}
	var vars []string
	if err := p.parseNames("reduction variable", func(v string) { vars = append(vars, v) }); err != nil {
		return err
	}
	if _, err := p.expect(TokRParen, "')'"); err != nil {
		return err
	}
	c.Reductions = append(c.Reductions, ReductionClause{Op: op, Vars: vars})
	return nil
}

// parseSchedule parses "( [modifier :] kind [, chunk] )", where modifier is
// monotonic or nonmonotonic (OpenMP 5.2 §11.5.3).
func (p *dirParser) parseSchedule(c *Clauses) error {
	if _, err := p.expect(TokLParen, "'('"); err != nil {
		return err
	}
	switch {
	case p.eatToken(TokMonotonic) != nil:
		c.SchedMod = SchedModMonotonic
	case p.eatToken(TokNonmonotonic) != nil:
		c.SchedMod = SchedModNonmonotonic
	}
	if c.SchedMod != SchedModNone {
		if _, err := p.expect(TokColon, "':' after schedule modifier"); err != nil {
			return err
		}
	}
	switch {
	case p.eatToken(TokStatic) != nil:
		c.Sched = SchedStatic
	case p.eatToken(TokDynamic) != nil:
		c.Sched = SchedDynamic
	case p.eatToken(TokGuided) != nil:
		c.Sched = SchedGuided
	case p.eatToken(TokRuntime) != nil:
		c.Sched = SchedRuntime
	case p.eatToken(TokAuto) != nil:
		c.Sched = SchedAuto
	default:
		return fmt.Errorf("pragma: bad schedule kind at %s", *p.peek())
	}
	c.HasSchedule = true
	if p.eatToken(TokComma) != nil {
		tok, err := p.expect(TokInt, "chunk size")
		if err != nil {
			return err
		}
		chunk, err := strconv.ParseInt(tok.Text, 10, 64)
		if err != nil || chunk <= 0 {
			return fmt.Errorf("pragma: schedule chunk must be a positive integer, got %q", tok.Text)
		}
		c.Chunk = chunk
	}
	_, err := p.expect(TokRParen, "')'")
	return err
}

// parseDepend parses "( in|out|inout : ident {, ident} )" — OpenMP 5.2
// §15.9.5's task-dependence subset. The dependence-type modifiers the
// implementation does not lower (mutexinoutset, depobj, the doacross
// sink/source forms) are rejected by the mode switch with a pointed error.
func (p *dirParser) parseDepend(c *RareClauses) error {
	if _, err := p.expect(TokLParen, "'('"); err != nil {
		return err
	}
	var mode DependMode
	switch {
	case p.eatToken(TokInOut) != nil:
		mode = DependInOut
	case p.eatToken(TokIn) != nil:
		mode = DependIn
	case p.eatToken(TokOut) != nil:
		mode = DependOut
	default:
		return fmt.Errorf("pragma: depend requires a dependence type (in, out, or inout), found %s", *p.peek())
	}
	if _, err := p.expect(TokColon, "':' after dependence type"); err != nil {
		return err
	}
	var vars []string
	if err := p.parseNames("dependence variable", func(v string) { vars = append(vars, v) }); err != nil {
		return err
	}
	if _, err := p.expect(TokRParen, "')'"); err != nil {
		return err
	}
	c.Depends = append(c.Depends, DependClause{Mode: mode, Vars: vars})
	return nil
}

// parseIntList parses "( positive-int {, positive-int} )" — the argument
// shape of the tile directive's sizes clause.
func (p *dirParser) parseIntList(clause string) ([]int64, error) {
	if _, err := p.expect(TokLParen, "'('"); err != nil {
		return nil, err
	}
	var out []int64
	for {
		tok, err := p.expect(TokInt, clause+" value")
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(tok.Text, 10, 64)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("pragma: %s requires positive integers, got %q", clause, tok.Text)
		}
		out = append(out, n)
		if p.eatToken(TokComma) == nil {
			break
		}
	}
	if _, err := p.expect(TokRParen, "')'"); err != nil {
		return nil, err
	}
	return out, nil
}

// parseDefault parses "( shared | none )".
func (p *dirParser) parseDefault(c *Clauses) error {
	if _, err := p.expect(TokLParen, "'('"); err != nil {
		return err
	}
	switch {
	case p.eatToken(TokShared) != nil:
		c.Default = DefaultShared
	case p.eatToken(TokNone) != nil:
		c.Default = DefaultNone
	default:
		return fmt.Errorf("pragma: default requires shared or none, found %s", *p.peek())
	}
	_, err := p.expect(TokRParen, "')'")
	return err
}

// parseIntArg parses "( positive-int )".
func (p *dirParser) parseIntArg(clause string) (int64, error) {
	if _, err := p.expect(TokLParen, "'('"); err != nil {
		return 0, err
	}
	tok, err := p.expect(TokInt, clause+" count")
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(tok.Text, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("pragma: %s requires a positive integer, got %q", clause, tok.Text)
	}
	if _, err := p.expect(TokRParen, "')'"); err != nil {
		return 0, err
	}
	return n, nil
}

// parseRawExpr captures the balanced-parenthesis content of "( … )" as raw
// host-language text, for clauses (if, num_threads) whose argument is an
// arbitrary Go expression the pragma grammar does not model: a slice of
// text. (Text is not a field of the parser: what leaks from one field of it
// leaks from all, and the tokens are to stay on the stack.)
func (p *dirParser) parseRawExpr(text, clause string) (string, error) {
	open, err := p.expect(TokLParen, "'('")
	if err != nil {
		return "", err
	}
	depth := 1
	for {
		tok := p.peek()
		switch tok.Tag {
		case TokEOF:
			return "", fmt.Errorf("pragma: unterminated %s(...)", clause)
		case TokLParen:
			depth++
		case TokRParen:
			depth--
			if depth == 0 {
				expr := strings.TrimSpace(text[open.Off+1 : tok.Off])
				if expr == "" {
					return "", fmt.Errorf("pragma: empty %s(...)", clause)
				}
				p.pos++
				return expr, nil
			}
		}
		p.pos++
	}
}
