package omp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The API keeps a function only when something needs it: the lowering
// emits it, the benchmark harness calls it, or it is on the explicit list
// below. Every other program reaches the runtime through pragmas, so a
// hand-lowering convenience with no user there is dead weight.

// listedFuncs are the exported functions that neither the lowering nor the
// benchmark reaches. A routine the benchmark also calls may still be
// listed.
var listedFuncs = []string{
	// OpenMP's runtime-library routines (omp_get_thread_num, …, the lock
	// and timing routines), cancel-var's setter and OMP_SCHEDULE's parser.
	"GetThreadNum", "GetNumThreads", "GetMaxThreads", "SetNumThreads",
	"GetNumProcs", "InParallel", "GetDynamic", "SetDynamic",
	"GetSchedule", "SetSchedule", "ParseSchedule", "GetThreadLimit",
	"GetMaxActiveLevels", "SetMaxActiveLevels", "GetLevel", "GetActiveLevel",
	"GetCancellation", "SetCancellation", "NewNestLock", "GetWtime", "GetWtick",
	// Tool support, the analogue of OpenMP's omp_control_tool and OMPD:
	// the debug server, diagnostics dumps and the watchdog.
	"ServeDebug", "DumpDiagnostics", "ReadHealth",
	"StartWatchdog", "StartWatchdogConfig",
	// Regions that can fail or time out, which no pragma spells.
	"ParallelErr", "WithContext",
}

func TestExportedSurface(t *testing.T) {
	exported := exportedFuncs(t)
	need := emittedNames(t)
	for name := range benchmarkUses(t) {
		need[name] = true
	}
	for _, name := range listedFuncs {
		if !exported[name] {
			t.Errorf("listedFuncs names %s, which package omp does not export", name)
		}
		need[name] = true
	}
	var unused []string
	for name := range exported {
		if !need[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("omp.%s is exported, but internal/core never emits it, benchmark/ never calls it and listedFuncs does not name it", name)
	}
}

// parseDir parses the Go files in dir that keep matches.
func parseDir(t *testing.T, dir string, keep func(name string) bool) []*ast.File {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, p := range paths {
		if !keep(filepath.Base(p)) {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	return files
}

func nonTest(name string) bool { return !strings.HasSuffix(name, "_test.go") }

// exportedFuncs returns the names of package omp's exported functions.
func exportedFuncs(t *testing.T) map[string]bool {
	out := map[string]bool{}
	for _, f := range parseDir(t, ".", nonTest) {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				out[fn.Name.Name] = true
			}
		}
	}
	return out
}

var ompName = regexp.MustCompile(`\bomp\.([A-Z]\w*)`)

// emittedNames returns every omp.X that a string literal of the lowering
// names: the text it writes into generated files.
func emittedNames(t *testing.T) map[string]bool {
	out := map[string]bool{}
	for _, f := range parseDir(t, filepath.Join("..", "internal", "core"), nonTest) {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				s, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range ompName.FindAllStringSubmatch(s, -1) {
					out[m[1]] = true
				}
			}
			return true
		})
	}
	return out
}

// benchmarkUses returns every omp.X the benchmark harness calls or passes
// on as a function value.
func benchmarkUses(t *testing.T) map[string]bool {
	out := map[string]bool{}
	for _, f := range parseDir(t, filepath.Join("..", "benchmark"), func(string) bool { return true }) {
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "omp" {
					out[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	return out
}
