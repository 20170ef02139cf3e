package core

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"unicode"
)

// The type-check oracle: the lowering never runs go/types, so the only
// proof that it picks the right types — an int64 loop variable stays
// int64, an atomic helper infers the variable's type — is to type-check
// its output. The check imports the real gomp/omp package, from the export
// data `go list -export` leaves in the build cache, once per process.

var exportImports struct {
	sync.Mutex
	files map[string]string // import path → export data file
	imp   types.Importer
}

// listExports adds the export data of pkgs and their dependencies.
func listExports(pkgs ...string) error {
	out, err := exec.Command("go", append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}"}, pkgs...)...).Output()
	if err != nil {
		return fmt.Errorf("go list -export %v: %v", pkgs, err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok && file != "" {
			exportImports.files[path] = file
		}
	}
	return nil
}

// typeCheck type-checks the single-file package src.
func typeCheck(src []byte) error {
	ei := &exportImports
	ei.Lock()
	defer ei.Unlock()
	if ei.imp == nil {
		ei.files = map[string]string{}
		if err := listExports("gomp/omp"); err != nil {
			return err
		}
		ei.imp = importer.ForCompiler(token.NewFileSet(), "gc", func(path string) (io.ReadCloser, error) {
			if _, ok := ei.files[path]; !ok { // a package gomp/omp does not reach
				if err := listExports(path); err != nil {
					return nil, err
				}
			}
			return os.Open(ei.files[path])
		})
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, 0)
	if err != nil {
		return err
	}
	_, err = (&types.Config{Importer: ei.imp}).Check(f.Name.Name, fset, []*ast.File{f}, nil)
	return err
}

// checkTypedOutput is the oracle: if src type-checks, the lowered out must.
// It reports whether src type-checked. Errors that gc reports in the front
// end's place are no faults: a clause operand that is no variable of a type
// OpenMP allows there — an undefined name, a function in a depend clause —
// a clause expression that is not one of the right type, and a variable
// failing the type constraint of the generic omp call it is handed to — a
// reduction over a function, an atomic update of a string, a float loop
// variable.
func checkTypedOutput(t *testing.T, src, out []byte) bool {
	t.Helper()
	if typeCheck(src) != nil {
		return false
	}
	err := typeCheck(out)
	if err == nil || strings.Contains(err.Error(), "does not satisfy omp.") {
		return true
	}
	if te, ok := err.(types.Error); ok {
		line := strings.Split(string(out), "\n")[te.Fset.Position(te.Pos).Line-1]
		for _, opt := range []string{"omp.NumThreads(", "omp.If(", "omp.Final(", "omp.Priority(", "omp.Depend", "omp.Cancel("} {
			if strings.Contains(line, opt) {
				return true // the line a clause expression or depend item lands on
			}
		}
	}
	words := strings.FieldsFunc(err.Error(), func(r rune) bool { return !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' })
	operands := clauseOperands(src)
	if slices.ContainsFunc(words, func(w string) bool { return operands[w] }) {
		return true
	}
	t.Fatalf("input type-checks, output does not: %v\n%s", err, out)
	return true
}

// clauseOperands returns the variables src's pragmas list in clauses.
func clauseOperands(src []byte) map[string]bool {
	infos, _ := Inspect(src, Options{})
	names := map[string]bool{}
	for _, info := range infos {
		c, r := &info.Dir.Clauses, info.Dir.Clauses.rare()
		for _, v := range c.Vars {
			names[v.Name] = true
		}
		lists := [][]string{r.CopyPrivate, r.ThreadPrivateVars}
		for _, red := range c.Reductions {
			lists = append(lists, red.Vars)
		}
		for _, d := range r.Depends {
			lists = append(lists, d.Vars)
		}
		for _, l := range lists {
			for _, v := range l {
				names[v] = true
			}
		}
	}
	return names
}

// The typed fixtures must type-check as written, so that the oracle is
// not vacuous over them, and so must every fixture's lowering whose input
// does; EP's batch loop, `for k := int64(0); k < nn; k++` with k used as
// an int64, is typed_loops.go's batches.
func TestLoweredFixturesTypeCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list -export")
	}
	checked := map[string]bool{}
	for name, src := range lowerFixtures(t) {
		if strings.HasPrefix(name, "err_") {
			continue
		}
		out, err := preprocess(src, fixtureOptions(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Run(name, func(t *testing.T) { checked[name] = checkTypedOutput(t, src, out) })
	}
	for _, name := range []string{"typed_loops.go", "typed_atomics.go", "edge_format.go"} {
		if !checked[name] {
			t.Errorf("%s does not type-check as written: %v", name, typeCheck(lowerFixtures(t)[name]))
		}
	}
}

// buildProgram builds src as a main package inside the module tree, where
// its gomp imports resolve, and returns a function that runs it with
// OMP_NUM_THREADS=threads and returns its stdout.
func buildProgram(t *testing.T, src []byte) func(threads int) string {
	t.Helper()
	dir, err := os.MkdirTemp(".", "e2e-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	if err := os.WriteFile(filepath.Join(dir, "main.go"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	bin, err := filepath.Abs(filepath.Join(dir, "prog"))
	if err != nil {
		t.Fatal(err)
	}
	if stdout, err := exec.Command("go", "build", "-o", bin, "./"+dir).CombinedOutput(); err != nil {
		t.Fatalf("go build failed: %v\n--- output ---\n%s\n--- source ---\n%s", err, stdout, src)
	}
	return func(threads int) string {
		t.Helper()
		cmd := exec.Command(bin)
		cmd.Env = append(os.Environ(), fmt.Sprintf("OMP_NUM_THREADS=%d", threads))
		stdout, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("run failed: %v\n--- output ---\n%s\n--- source ---\n%s", err, stdout, src)
		}
		return string(stdout)
	}
}

// The typed fixtures are programs whose pragmas are comments to the Go
// compiler: built as written they are their own serial oracle. Lowered,
// they must print the same, at every team size — loop variables of each
// integer type under collapse, tile, unroll and taskloop, and atomic
// updates of every lowering path racing on one variable.
func TestEndToEndTypedFixtures(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	fixtures := lowerFixtures(t)
	for _, name := range []string{"typed_loops.go", "typed_atomics.go"} {
		t.Run(name, func(t *testing.T) {
			src := fixtures[name]
			out, err := preprocess(src, Options{Filename: name})
			if err != nil {
				t.Fatal(err)
			}
			want := buildProgram(t, src)(1)
			run := buildProgram(t, out)
			for _, threads := range []int{1, 2, 3, 4} {
				if got := run(threads); got != want {
					t.Errorf("T=%d: lowered program printed %q, serial %q", threads, got, want)
				}
			}
		})
	}
}
