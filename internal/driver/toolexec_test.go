package driver

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// rewriteCompileArgs: only pragma-bearing .go file arguments move to
// the temp tree; flags, non-files and pragma-free sources stay put.
func TestRewriteCompileArgs(t *testing.T) {
	src := t.TempDir()
	writeTree(t, src, map[string]string{
		"hot.go":   pragmaSrc,
		"plain.go": plainSrc,
	})
	tmp := t.TempDir()
	argv := []string{
		"/toolchain/compile", "-o", "out.a", "-p", "p", "-lang=go1.24",
		filepath.Join(src, "hot.go"), filepath.Join(src, "plain.go"), "nonexistent.go",
	}
	got, n, err := rewriteCompileArgs(argv, tmp)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("rewritten = %d, want 1", n)
	}
	for i, want := range argv[:6] {
		if got[i] != want {
			t.Fatalf("arg %d changed: %q -> %q", i, want, got[i])
		}
	}
	if got[7] != argv[7] || got[8] != argv[8] {
		t.Fatalf("pragma-free args changed: %v", got)
	}
	if !strings.HasPrefix(got[6], tmp) || filepath.Base(got[6]) != "hot.go" {
		t.Fatalf("pragma file not redirected: %q", got[6])
	}
	out, err := os.ReadFile(got[6])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "omp.Parallel(") {
		t.Fatalf("redirected file not lowered:\n%s", out)
	}
	// Diagnostics keep the original path, not the temp one.
	if !strings.Contains(string(out), `"`+filepath.ToSlash(filepath.Join(src, "hot.go"))+`"`) {
		t.Errorf("generated Loc does not name the original path:\n%s", out)
	}
}

// A directive error surfaces instead of silently compiling the
// unprocessed original.
func TestRewriteCompileArgsReportsErrors(t *testing.T) {
	src := t.TempDir()
	writeTree(t, src, map[string]string{"bad.go": "package p\n\nfunc f() {\n\t//omp paralel\n\t{\n\t}\n}\n"})
	_, _, err := rewriteCompileArgs([]string{"compile", filepath.Join(src, "bad.go")}, t.TempDir())
	if err == nil || !strings.Contains(err.Error(), "bad.go:4") {
		t.Fatalf("err = %v, want positioned diagnostic", err)
	}
}

// Non-compile tools pass through argument-for-argument (exercised via
// the classifier; Toolexec itself would exec them).
func TestIsCompileTool(t *testing.T) {
	for tool, want := range map[string]bool{
		"/usr/lib/go/pkg/tool/linux_amd64/compile": true,
		`C:\go\pkg\tool\windows_amd64\compile.exe`: false, // backslashes are not separators on this host
		"compile":                               true,
		"compile.exe":                           true,
		"/usr/lib/go/pkg/tool/linux_amd64/link": false,
		"/usr/lib/go/pkg/tool/linux_amd64/vet":  false,
	} {
		if got := isCompileTool(tool); got != want {
			t.Errorf("isCompileTool(%q) = %v, want %v", tool, got, want)
		}
	}
}

// A transformed file whose compile has no gomp/omp in its importcfg fails
// with a diagnostic naming the file and the blank import it needs, not
// with gc's "could not import gomp/omp"; with the import present it is
// rewritten.
func TestRewriteCompileArgsNeedsRuntimeImport(t *testing.T) {
	src := t.TempDir()
	writeTree(t, src, map[string]string{
		"hot.go":      pragmaSrc,
		"without.cfg": "# import config\npackagefile fmt=/cache/fmt.a\n",
		"with.cfg":    "# import config\npackagefile fmt=/cache/fmt.a\npackagefile gomp/omp=/cache/omp.a\n",
	})
	hot := filepath.Join(src, "hot.go")
	argv := func(cfg string) []string {
		return []string{"compile", "-p", "p", "-importcfg", filepath.Join(src, cfg), hot}
	}
	_, _, err := rewriteCompileArgs(argv("without.cfg"), t.TempDir())
	if err == nil || !strings.Contains(err.Error(), hot) || !strings.Contains(err.Error(), `import _ "gomp/omp"`) {
		t.Fatalf("err = %v, want one naming %s and the blank import", err, hot)
	}
	if _, n, err := rewriteCompileArgs(argv("with.cfg"), t.TempDir()); err != nil || n != 1 {
		t.Fatalf("with gomp/omp imported: %d rewritten, %v", n, err)
	}
}

// gompcc's answer to `compile -V=full` keeps the form the go command
// parses — a release line whole, a development line's buildID field last
// — and differs from the compiler's own, so the cache keeps toolexec
// and plain compiles apart.
func TestVersionLine(t *testing.T) {
	const id = "gompcc=gomp-core.15+0011223344556677"
	for line, want := range map[string]string{
		"compile version go1.24.0\n":                       "compile version go1.24.0 " + id,
		"compile version go1.24.0 X:framepointer\n":        "compile version go1.24.0 X:framepointer " + id,
		"compile version devel go1.25-abc buildID=a/b/c\n": "compile version devel go1.25-abc buildID=a/b/c+" + id,
	} {
		got := versionLine(line, id)
		if got != want {
			t.Errorf("versionLine(%q) = %q, want %q", line, got, want)
		}
		f := strings.Fields(got)
		if f[0] != "compile" || f[1] != "version" || f[2] == "devel" && !strings.HasPrefix(f[len(f)-1], "buildID=") {
			t.Errorf("%q is not a -V=full line the go command accepts", got)
		}
		if f[2] == "devel" && !strings.HasSuffix(f[len(f)-1][strings.LastIndex(f[len(f)-1], "/")+1:], id) {
			t.Errorf("%q: the content ID the go command reads leaves out gompcc's identity", got)
		}
	}
	if real, err := identity(); err != nil || strings.ContainsAny(real, " /") || !strings.HasPrefix(real, "gompcc=") {
		t.Fatalf("identity() = %q, %v: want a gompcc= field with no space or slash", real, err)
	}
}
