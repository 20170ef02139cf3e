package core

import (
	"bytes"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The lowering lays out its own output (emit.go). These tests hold it to
// gofmt on every input the repository carries, and to doing so without
// format.Source: settle's fallback counter must not move.

// layoutInputs returns every annotated input the repository ships, keyed by
// a name: the lowering fixtures (not the diagnostics, not the inputs that
// take the fallback on purpose), gompcc's golden inputs, the
// pragma-bearing examples, and the scale test's source.
func layoutInputs(t *testing.T) map[string][]byte {
	t.Helper()
	in := map[string][]byte{"scaledSource(4)": scaledSource(4)}
	for name, src := range lowerFixtures(t) {
		if !strings.HasPrefix(name, "err_") && !strings.HasPrefix(name, fallbackPrefix) && name != uncleanFixture {
			in[name] = src
		}
	}
	var paths []string
	for _, pattern := range []string{"../../cmd/gompcc/testdata/*.go", "../../cmd/gompcc/testdata/dir/*.go", "../../examples/*/*.go"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		// Pragma-bearing: a pragma in a comment, not only in a string.
		if infos, err := Inspect(src, Options{}); err == nil && len(infos) > 0 && !strings.HasSuffix(p, "_test.go") {
			in[p] = src
		}
	}
	if len(in) < 24 {
		t.Fatalf("only %d layout inputs found", len(in))
	}
	return in
}

// uncleanFixture is the lowering fixture written out of gofmt layout. Its
// file is testdata/lower/unclean_input.go.txt, so that `gofmt -l .` does
// not list it; lowerFixtures keys it by this name.
const uncleanFixture = "unclean_input.go"

// fallbackPrefix starts the names of the lowering fixtures that hold text
// the emitter leaves to format.Source: function and composite literals in
// a loop bound or a clause.
const fallbackPrefix = "fallback_"

// lowerChecked lowers src and fails unless the output is a gofmt fixed
// point.
func lowerChecked(t *testing.T, name string, src []byte, opts Options) []byte {
	t.Helper()
	out, err := preprocess(src, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	formatted, err := format.Source(out)
	if err != nil {
		t.Fatalf("%s: output does not parse: %v", name, err)
	}
	if !bytes.Equal(formatted, out) {
		t.Errorf("%s: output is not gofmt's layout:\n%s", name, lineDiff(out, formatted))
	}
	return out
}

// lineDiff shows the first line where got and want part.
func lineDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return "line " + strconv.Itoa(i+1) + ":\n got  " + strconv.Quote(g[i]) + "\n want " + strconv.Quote(w[i])
		}
	}
	return "lengths differ"
}

func TestLoweringLaysOutWithoutFallback(t *testing.T) {
	for name, src := range layoutInputs(t) {
		for _, profile := range []bool{false, true} {
			opts := Options{Filename: filepath.Base(name), Profile: profile || strings.HasPrefix(filepath.Base(name), "profile_")}
			before := fallbacks.Load()
			lowerChecked(t, name, src, opts)
			if n := fallbacks.Load() - before; n != 0 {
				t.Errorf("%s (profile %v): format.Source ran %d times", name, profile, n)
			}
		}
	}
}

// An input out of gofmt layout keeps its own layout around the generated
// code (emit.go, "Layout"): nothing reprints it and format.Source does not
// run, yet the output parses and type-checks, and every input line outside
// the lowered loop comes through byte for byte, in order.
func TestUncleanInputKeepsItsLayout(t *testing.T) {
	src := lowerFixtures(t)[uncleanFixture]
	if formatted, err := format.Source(src); err != nil || bytes.Equal(formatted, src) {
		t.Fatalf("%s is meant to be out of gofmt layout (%v)", uncleanFixture, err)
	}
	before := fallbacks.Load()
	out, err := preprocess(src, Options{Filename: uncleanFixture})
	if err != nil {
		t.Fatal(err)
	}
	if n := fallbacks.Load() - before; n != 0 {
		t.Errorf("format.Source ran %d times, want 0", n)
	}
	if err := typeCheck(out); err != nil {
		t.Fatalf("output does not type-check: %v\n%s", err, out)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, uncleanFixture, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var loop *ast.ForStmt
	ast.Inspect(f, func(n ast.Node) bool {
		if l, ok := n.(*ast.ForStmt); ok && loop == nil {
			loop = l
		}
		return loop == nil
	})
	first, last := fset.Position(loop.Pos()).Line-1, fset.Position(loop.End()).Line // the pragma's line to the loop's
	rest := strings.Split(string(out), "\n")
	for i, line := range strings.Split(string(src), "\n") {
		if n := i + 1; n >= first && n <= last {
			continue
		}
		j := slices.Index(rest, line)
		if j < 0 {
			t.Fatalf("input line %d %q is not in the output in order:\n%s", i+1, line, out)
		}
		rest = rest[j+1:]
	}
}

// Text the emitter cannot lay out takes the fallback too, and comes out
// with what it must keep intact.
func TestUnsafeTextFallsBack(t *testing.T) {
	for name, c := range map[string]struct{ src, keep string }{
		"multi-line raw string": {"package p\n\nconst doc = `a\n\n\nb`\n\nfunc f(n int) {\n\t//omp parallel\n\t{\n\t\t_ = n\n\t}\n}\n", "`a\n\n\nb`"},
		"multi-line comment":    {"package p\n\nfunc f(n int) {\n\t//omp parallel\n\t{\n\t\t/* a\n\t\t   b */\n\t\t_ = n\n\t}\n}\n", "b */"},
		"aligned renamed line":  {"package p\n\nfunc f(a []int) int {\n\ts := 0\n\t//omp parallel for reduction(+:s)\n\tfor i := 0; i < len(a); i++ {\n\t\ts += a[i] // x\n\t\ti2 := i   // y\n\t\t_ = i2\n\t}\n\treturn s\n}\n", "// y"},
		"multi-line bound":      {"package p\n\nfunc f(a []int, n int) {\n\t//omp parallel for\n\tfor i := 0; i < n+\n\t\t1; i++ {\n\t\ta[i] = 0\n\t}\n}\n", "n+1"},
		"clause with a comment": {"package p\n\nfunc f(n int) {\n\t//omp parallel num_threads(n /* all */)\n\t{\n\t\t_ = n\n\t}\n}\n", "/* all */"},
		"pragma after code":     {"package p\n\nfunc f() int {\n\tx := 1 //omp barrier\n\treturn x\n}\n", "x := 1\n\tomp.Barrier("},
	} {
		if formatted, err := format.Source([]byte(c.src)); err != nil || string(formatted) != c.src {
			t.Fatalf("%s: the input is not in gofmt layout (%v):\n%s", name, err, formatted)
		}
		before := fallbacks.Load()
		if out := lowerChecked(t, name, []byte(c.src), Options{Filename: "f.go"}); !strings.Contains(string(out), c.keep) {
			t.Errorf("%s: output lost %q:\n%s", name, c.keep, out)
		}
		if n := fallbacks.Load() - before; n != 1 {
			t.Errorf("%s: format.Source ran %d times, want 1", name, n)
		}
	}
	for name, src := range lowerFixtures(t) {
		if !strings.HasPrefix(name, fallbackPrefix) {
			continue
		}
		before := fallbacks.Load()
		lowerChecked(t, name, src, Options{Filename: name})
		if n := fallbacks.Load() - before; n != 1 {
			t.Errorf("%s: format.Source ran %d times, want 1", name, n)
		}
	}
}

// go/format appears in this package's code only inside settle, the
// fallback, and go/printer nowhere: the lowering itself never prints its
// input or re-parses its output.
func TestOnlySettleFormats(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "go/printer" {
				t.Errorf("%s imports go/printer", p)
			}
			if path != "go/format" {
				continue
			}
			name := filepath.Base(path)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			names[name] = true
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if ok && fn.Name.Name == "settle" {
				continue
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && names[x.Name] {
						t.Errorf("%s: %s.%s outside settle", fset.Position(sel.Pos()), x.Name, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
}
