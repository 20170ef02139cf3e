package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Golden coverage of the lowering: every generator and the construct
// combinations whose nesting order matters, one fixture each under
// testdata/lower. A fixture whose name starts with err_ pins a diagnostic
// instead of output; one starting with profile_ runs with Options.Profile.
// Regenerate with:
//
//	go test ./internal/core -run TestLowerGolden -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/lower/*.golden")

// lowerFixtures returns the fixture sources keyed by base name. A fixture
// that gofmt must not list, such as uncleanFixture, is stored as name.go.txt
// and keyed, lowered and named in its output as name.go.
func lowerFixtures(t testing.TB) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "lower", "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures under testdata/lower: %v", err)
	}
	txt, err := filepath.Glob(filepath.Join("testdata", "lower", "*.go.txt"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(paths)+len(txt))
	for _, p := range append(paths, txt...) {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[strings.TrimSuffix(filepath.Base(p), ".txt")] = src
	}
	return out
}

func fixtureOptions(name string) Options {
	return Options{Filename: name, Profile: strings.HasPrefix(name, "profile_")}
}

var locCall = regexp.MustCompile(`omp\.Loc\("([^"]+)", (\d+), "([^"]+)"\)`)

func TestLowerGolden(t *testing.T) {
	for name, src := range lowerFixtures(t) {
		t.Run(name, func(t *testing.T) {
			got, err := preprocess(src, fixtureOptions(name))
			wantErr := strings.HasPrefix(name, "err_")
			if (err != nil) != wantErr {
				t.Fatalf("Transform error = %v, want error: %v", err, wantErr)
			}
			if err != nil {
				got = []byte("error: " + err.Error() + "\n")
			}
			golden := filepath.Join("testdata", "lower", strings.TrimSuffix(name, ".go")+".golden")
			if *updateGolden {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// Every omp.Loc(file, line, kind) the lowering emits must name a line of
// the user's file that holds a pragma of that kind: the runtime's region
// table, profiles and flight rows are keyed by it.
func TestLocNamesThePragmaLine(t *testing.T) {
	for name, src := range lowerFixtures(t) {
		if strings.HasPrefix(name, "err_") {
			continue
		}
		out, err := preprocess(src, fixtureOptions(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Split(string(src), "\n")
		locs := locCall.FindAllSubmatch(out, -1)
		if len(locs) == 0 && !onlyTransformations(t, src) {
			t.Errorf("%s: no omp.Loc call in the output", name)
		}
		for _, m := range locs {
			line, _ := strconv.Atoi(string(m[2]))
			kind := string(m[3])
			if string(m[1]) != name || line < 1 || line > len(lines) {
				t.Errorf("%s: %s names no line of the input", name, m[0])
				continue
			}
			text, _, ok := Sentinel(strings.TrimSpace(lines[line-1]))
			if !ok {
				t.Errorf("%s: %s names line %d, which holds no pragma: %q", name, m[0], line, lines[line-1])
				continue
			}
			d, err := ParseDirective(text)
			if err != nil {
				t.Fatalf("%s:%d: %v", name, line, err)
			}
			// A fused parallel for stamps both of its halves.
			if got := d.Kind.String(); got != kind && !(d.Kind == DirParallelFor && (kind == "parallel" || kind == "for")) {
				t.Errorf("%s: %s names line %d, which holds a %q pragma", name, m[0], line, got)
			}
		}
	}
}

// onlyTransformations reports whether every pragma of src is a tile or an
// unroll, which lower to plain loops and name no location.
func onlyTransformations(t *testing.T, src []byte) bool {
	infos, err := Inspect(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range infos {
		if p.Dir.Kind != DirTile && p.Dir.Kind != DirUnroll {
			return false
		}
	}
	return true
}

// A file that does not parse yields exactly one positioned diagnostic, the
// user's own syntax error, before any lowering runs — not a complaint
// about generated code.
func TestUnparsableInputOneDiagnostic(t *testing.T) {
	src := "package p\n\nfunc f(a []int) {\n\t//omp parallel for\n\tfor i := 0; i < len(a); i++ {\n\t\ta[i] = = 1\n\t\tb[i] = = 2\n\t}\n}\n"
	for _, opts := range []Options{{Filename: "bad.go"}, {Filename: "bad.go", Profile: true}} {
		_, err := preprocess([]byte(src), opts)
		if err == nil {
			t.Fatal("no error for a file that does not parse")
		}
		msg := err.Error()
		if !strings.Contains(msg, "bad.go:6:10:") || strings.Count(msg, "bad.go:") != 1 || strings.Contains(msg, "more errors") {
			t.Errorf("want one file:line:col diagnostic at bad.go:6:10, got %q", msg)
		}
		if strings.Contains(msg, "generated code") {
			t.Errorf("the user's syntax error is blamed on generated code: %q", msg)
		}
		if _, ierr := Inspect([]byte(src), opts); ierr == nil || ierr.Error() != msg {
			t.Errorf("Inspect reports %v, Transform %q", ierr, msg)
		}
	}
}

// Directives inside a task body bind to the thread executing the task —
// the closure's parameter — whether or not the task itself is orphaned.
func TestTaskBodyBindsTheExecutingThread(t *testing.T) {
	out := pp(t, `package p

func f(v *int) {
	//omp task
	{
		*v = 1
		//omp taskwait
	}
}
`)
	wantContains(t, out, "omp.Task(__omp_t, func(__omp_t *omp.Thread) {", "omp.Taskwait(__omp_t)")
}

// A directive between a label and its statement lowers there: the label
// then marks the generated code, and a goto to it still compiles.
func TestDirectiveAfterLabel(t *testing.T) {
	src := `package p

func f(n int) int {
again:
	//omp barrier
	n--
	if n > 0 {
		goto again
	}
	return n
}
`
	out := pp(t, src)
	wantContains(t, out, "again: omp.Barrier(omp.Current()) n--")
	if !testing.Short() && !checkTypedOutput(t, []byte(src), []byte(out)) {
		t.Fatal("the input does not type-check")
	}
}

// A directive stacked above another applies to the construct the lower one
// forms with the statement, as the statement after a C pragma may itself
// be a pragma'd statement; it is never silently dropped.
func TestStackedDirectivesNest(t *testing.T) {
	out := pp(t, `package p

func f(n *int) {
	//omp parallel
	//omp single
	{
		*n = 1
	}
}
`)
	wantContains(t, out, "omp.Parallel(func(__omp_t *omp.Thread) {", "omp.Single(__omp_t, func() {")
	for name, src := range map[string]string{
		"standalone between": "package p\nfunc f() {\n\t//omp parallel\n\t//omp barrier\n\t{\n\t}\n}\n",
		"no loops generated": "package p\nfunc f(n int) {\n\t//omp for\n\t//omp critical\n\tfor i := 0; i < n; i++ {\n\t}\n}\n",
	} {
		if _, err := preprocess([]byte(src), Options{}); err == nil || !strings.Contains(err.Error(), "would be discarded") {
			t.Errorf("%s: error = %v, want a would-be-discarded diagnostic", name, err)
		}
	}
}

// Tree-level diagnostics: what used to be found by re-walking generated
// code is a query over the directive tree.
func TestTreeDiagnostics(t *testing.T) {
	for name, c := range map[string]struct{ src, want string }{
		"nested clause shadows a reduction variable": {`package p
func f(n int) int {
	s := 0
	//omp parallel for reduction(+:s)
	for i := 0; i < n; i++ {
		//omp task firstprivate(s)
		{
			s++
		}
	}
	return s
}`, "named in a clause of the nested task directive on line 6"},
		"pragma closing a block": {`package p
func f(n int) {
	//omp parallel
	{
		n++
		//omp single
	}
	{
		n--
	}
}`, "omp single: directive must immediately precede a { … } block"},
		"pragma between the loops of a collapsed nest": {`package p
func f(a []int, n int) {
	//omp parallel for collapse(2)
	for i := 0; i < n; i++ {
		//omp tile sizes(4)
		for j := 0; j < n; j++ {
			a[i*n+j]++
		}
	}
}`, "keeps no source text"},
		"executable directive outside any function": {"package p\n\n//omp barrier\nfunc f() {}\n", "inside a function body"},
		"directive inside an expression":            {"package p\n\nfunc f(b, c int) int {\n\ta := b +\n\t\t//omp barrier\n\t\tc\n\treturn a\n}\n", "inside a statement"},
		"section below the top level of its block": {`package p
func f(n int) {
	//omp sections
	{
		if n > 0 {
			//omp section
			n++
		}
	}
}`, "top level of its sections block"},
		"threadprivate variable privatised": {`package p
var x int
//omp threadprivate(x)
func f() {
	//omp parallel private(x)
	{
		x++
	}
}`, "threadprivate variable x cannot appear"},
	} {
		_, err := preprocess([]byte(c.src), Options{Filename: "t.go"})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want it to mention %q", name, err, c.want)
		}
	}
}

// The ordered binding is looked up through a stacked tile to the loop half
// of a fused parallel for.
func TestOrderedBindingThroughStackedTile(t *testing.T) {
	src := `package p
func f(n int) {
	//omp parallel for
	//omp tile sizes(4)
	for i := 0; i < n; i++ {
		//omp ordered
		{
			_ = i
		}
	}
}`
	if _, err := preprocess([]byte(src), Options{}); err == nil || !strings.Contains(err.Error(), "lacks the ordered clause") {
		t.Fatalf("error = %v, want the missing ordered clause diagnosed", err)
	}
}
