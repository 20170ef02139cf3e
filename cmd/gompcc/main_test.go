package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestProcessFileTransformsPragmas(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.go")
	src := `package p

func f(a []int) {
	//omp parallel for
	for i := 0; i < len(a); i++ {
		a[i] = i
	}
}
`
	if err := os.WriteFile(in, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := processFile(in, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "omp.Parallel(") {
		t.Fatalf("no lowering in output:\n%s", out)
	}
}

// -profile injects a source-located span into pragma-containing
// functions and the profiler lifecycle into main.
func TestProcessFileProfileMode(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "app.go")
	src := `package main

func work(a []int) {
	//omp parallel for
	for i := 0; i < len(a); i++ {
		a[i] = i
	}
}

func main() {
	work(make([]int, 100))
}
`
	if err := os.WriteFile(in, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := processFile(in, true)
	if err != nil {
		t.Fatal(err)
	}
	text := string(out)
	if !strings.Contains(text, `defer omp.ZoneAt("app.go", 3, "work")()`) {
		t.Fatalf("pragma function not instrumented:\n%s", text)
	}
	if !strings.Contains(text, "defer omp.Profile()()") {
		t.Fatalf("main not instrumented:\n%s", text)
	}
}

func TestProcessFilePassThrough(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "plain.go")
	src := "package p\n\nfunc f() {}\n"
	if err := os.WriteFile(in, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := processFile(in, false)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != src {
		t.Fatalf("pragma-free file modified:\n%s", out)
	}
}

func TestProcessFileReportsErrorsWithPosition(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bad.go")
	src := `package p

func f() {
	//omp paralel
	{
	}
}
`
	if err := os.WriteFile(in, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := processFile(in, false)
	if err == nil {
		t.Fatal("bad pragma accepted")
	}
	if !strings.Contains(err.Error(), "bad.go:4") {
		t.Fatalf("error lacks file:line: %v", err)
	}
}

// -explain is a dry run: every directive is listed with its line, its
// re-rendered clause set, and the lowering/transformation description, and
// the input file is never modified.
func TestExplainFile(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.go")
	src := `package p

func f(m []int, ni, nj int, s *int) {
	//omp parallel for collapse(2) reduction(+:total) schedule(dynamic,4) num_threads(8)
	//omp tile sizes(32,32)
	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			m[i*nj+j]++
		}
	}
	//omp unroll partial(4)
	for i := 0; i < ni; i++ {
		*s += i
	}
}
`
	if err := os.WriteFile(in, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := explainFile(in, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"in.go:4: //omp parallel for",
		"schedule(dynamic,4)",
		"reduction(+) over total",
		"in.go:5: //omp tile sizes(32,32)",
		"strip-mine the 2-deep loop nest into a 4-deep nest",
		"in.go:11: //omp unroll partial(4)",
		"unroll the loop body 4×",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	after, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != src {
		t.Error("-explain modified the input file")
	}
}

// -explain on a pragma-free file says so rather than printing nothing.
func TestExplainFileNoPragmas(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "plain.go")
	if err := os.WriteFile(in, []byte("package p\n\nfunc f() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := explainFile(in, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no omp pragmas") {
		t.Errorf("output = %q, want a no-pragmas notice", b.String())
	}
}

// -explain reports directive parse errors with position info.
func TestExplainFileBadPragma(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bad.go")
	src := "package p\n\nfunc f() {\n\t//omp tile\n\tfor i := 0; i < 4; i++ {\n\t}\n}\n"
	if err := os.WriteFile(in, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	err := explainFile(in, &b)
	if err == nil || !strings.Contains(err.Error(), "sizes clause") {
		t.Fatalf("error = %v, want the tile sizes diagnostic", err)
	}
}

// -explain over every file of a directory (gompcc -explain dir/*.go)
// stays a dry run: each file is explained and nothing is written.
func TestExplainDirWritesNothing(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"x.go": "package p\n\nfunc f(a []int, n int) {\n\t//omp unroll partial(2)\n\tfor i := 0; i < n; i++ {\n\t\ta[i]++\n\t}\n}\n",
		"y.go": "package p\n\nfunc g() {}\n",
	}
	var paths []string
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	sort.Strings(paths)
	var b strings.Builder
	if err := explainFiles(paths, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "unroll the loop body 2") || !strings.Contains(b.String(), "y.go: no omp pragmas") {
		t.Errorf("explain output misses a file:\n%s", b.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(files) {
		t.Fatalf("dry run created files: %v", entries)
	}
}

// A bare `gompcc in.go` is refused, naming -o and -stdout, and writes
// nothing: an in_omp.go beside in.go would not build with it.
func TestSingleFileNeedsOutput(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.go")
	src := "package p\n\nfunc fill(a []int) {\n\t//omp parallel for\n\tfor i := 0; i < len(a); i++ {\n\t\ta[i] = i\n\t}\n}\n"
	if err := os.WriteFile(in, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, log strings.Builder
	err := runFile(in, "", false, false, &stdout, &log)
	if err == nil || !strings.Contains(err.Error(), "-o") || !strings.Contains(err.Error(), "-stdout") {
		t.Fatalf("err = %v, want one naming -o and -stdout", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || stdout.Len() != 0 || log.Len() != 0 {
		t.Fatalf("refused run wrote %v, stdout %q, log %q", entries, stdout.String(), log.String())
	}
}
