package core

import (
	"bytes"
	"go/format"
	"testing"
)

// Native Go fuzz targets over the pragma front end, seeded from the
// parse-test corpus. CI runs each for a short -fuzztime as a smoke; longer
// local runs explore the grammar:
//
//	go test ./internal/core -run '^$' -fuzz FuzzParseDirective -fuzztime 60s

// fuzzSeeds is the corpus: every directive family, clause spellings at
// their packing limits, and a few malformed inputs so the fuzzer starts on
// both sides of every error path.
var fuzzSeeds = []string{
	"parallel",
	"parallel private(a,b) firstprivate(c) shared(d) default(none) num_threads(2*k) if(n > 3)",
	"parallel for reduction(+:sx,sy) reduction(*:p) schedule(guided,8) collapse(2)",
	"for schedule(nonmonotonic:dynamic,64) nowait private(i,j)",
	"for schedule(monotonic:static) ordered lastprivate(y)",
	"for collapse(15) schedule(trapezoidal,16)",
	"sections nowait",
	"single copyprivate(v) nowait",
	"critical(name_x)",
	"barrier",
	"atomic",
	"threadprivate(alpha, beta)",
	"master",
	"ordered",
	"task depend(in:a,b) depend(out:c) priority(3) mergeable untied",
	"task if(depth < 8) final(n < 16) default(shared)",
	"taskwait",
	"taskyield",
	"taskgroup",
	"taskloop grainsize(64) firstprivate(x) nogroup",
	"taskloop num_tasks(8) if(n > 100) priority(n + 1)",
	"cancel for if(found)",
	"cancel taskgroup",
	"cancellation point parallel",
	"tile sizes(64,8)",
	"tile sizes(4,4,4,4,4,4,4)",
	"unroll",
	"unroll full",
	"unroll partial",
	"unroll partial(4)",
	// Malformed: unknown words, unbalanced parens, misplaced clauses.
	"paralel",
	"parallel for schedule(",
	"tile",
	"unroll full partial(2)",
	"for sizes(4)",
	"barrier nowait",
	"schedule(static) for",
	"task depend(in:)",
	"private(x)",
}

// FuzzTokenize: the scanner must never panic, always terminate with an
// EOF token, and report in-bounds, non-decreasing offsets — the contract
// the parser's raw-expression re-slicing depends on.
func FuzzTokenize(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		toks, err := Tokenize(s)
		if err != nil {
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].Tag != TokEOF {
			t.Fatalf("token stream of %q does not end in EOF", s)
		}
		prev := 0
		for i, tok := range toks {
			if tok.Off < prev || tok.Off > len(s) {
				t.Fatalf("token %d of %q has offset %d outside [%d, %d]", i, s, tok.Off, prev, len(s))
			}
			prev = tok.Off
			if tok.Text != "" && tok.Tag != TokEOF {
				end := tok.Off + len(tok.Text)
				if end > len(s) || s[tok.Off:end] != tok.Text {
					t.Fatalf("token %d text %q does not match source slice at %d", i, tok.Text, tok.Off)
				}
			}
		}
	})
}

// FuzzParseDirective: parsing must never panic, and every accepted
// directive must survive the full round trip — String() re-parses to a
// render-stable directive, and the packed 32-bit encoding accepts it
// (validation bounds are strictly tighter than packing bounds, so a
// parse-accepted directive that fails to encode is a bug).
func FuzzParseDirective(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDirective(s)
		if err != nil {
			return
		}
		rendered := d.String()
		d2, err := ParseDirective(rendered)
		if err != nil {
			t.Fatalf("String() %q of accepted directive %q does not reparse: %v", rendered, s, err)
		}
		if got := d2.String(); got != rendered {
			t.Fatalf("String() not a fixed point: %q -> %q -> %q", s, rendered, got)
		}
		tree := NewTree()
		idx, err := tree.Encode(d)
		if err != nil {
			t.Fatalf("accepted directive %q does not encode: %v", s, err)
		}
		back, err := tree.Decode(idx)
		if err != nil {
			t.Fatalf("encoded directive %q does not decode: %v", s, err)
		}
		if back.Kind != d.Kind {
			t.Fatalf("decode changed kind of %q: %v -> %v", s, d.Kind, back.Kind)
		}
	})
}

// FuzzTransform: the whole pipeline, seeded from the lowering fixtures.
// Hostile input must yield a diagnostic, never a panic; and whatever
// Transform accepts must come out as Go that parses, is a gofmt fixed
// point, holds no pragma, and that Transform leaves alone when fed back.
func FuzzTransform(f *testing.F) {
	for _, src := range lowerFixtures(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		opts := Options{Filename: "fuzz.go"}
		res, err := Transform(src, opts)
		if err != nil || !res.Changed {
			return
		}
		formatted, err := format.Source(res.Output)
		if err != nil {
			t.Fatalf("output does not parse: %v\n%s", err, res.Output)
		}
		if !bytes.Equal(formatted, res.Output) {
			t.Fatalf("output is not a gofmt fixed point:\n%s", res.Output)
		}
		if infos, err := Inspect(res.Output, opts); err != nil || len(infos) > 0 {
			t.Fatalf("output still holds pragmas (%d, %v):\n%s", len(infos), err, res.Output)
		}
		if again, err := Transform(res.Output, opts); err != nil || again.Changed {
			t.Fatalf("Transform(output) changed it or failed (%v):\n%s", err, res.Output)
		}
	})
}
