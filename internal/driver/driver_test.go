package driver

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gomp/internal/core"
)

const pragmaSrc = `package p

func Sum(a []int) int {
	s := 0
	//omp parallel for reduction(+:s)
	for i := 0; i < len(a); i++ {
		s += a[i]
	}
	return s
}
`

const plainSrc = `package p

func Plain() int { return 1 }
`

// stringPragmaSrc mentions a pragma only inside a string literal — a
// ContainsPragma false positive the transform must treat as unchanged.
const stringPragmaSrc = `package p

const doc = ` + "`\n//omp parallel for\n`" + `
`

func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func mustRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("per-file failures: %v", err)
	}
	return rep
}

func TestRunCrawlAndTransform(t *testing.T) {
	root, out := t.TempDir(), t.TempDir()
	gen := "// Code generated by x. DO NOT EDIT.\n\npackage p\n\n//omp barrier\n"
	writeTree(t, root, map[string]string{
		"go.mod":                  "module m\n",
		"a.go":                    pragmaSrc,
		"plain.go":                plainSrc,
		"sub/b.go":                pragmaSrc,
		"a_test.go":               "package p\n",
		"vendor/v.go":             pragmaSrc,
		"testdata/td.go":          pragmaSrc,
		".hidden/h.go":            pragmaSrc,
		"_skip/s.go":              pragmaSrc,
		"gen.go":                  gen,
		"tagged.go":               "//go:build ignore\n\npackage p\n",
		"strlit.go":               stringPragmaSrc,
		filepath.Join("sub", "x"): "not go\n",
	})
	rep := mustRun(t, Config{Module: root, OutDir: out, Jobs: 2})

	// In the build: a.go, plain.go, sub/b.go, strlit.go and gen.go.
	// Everything else is a test, vendored, testdata, hidden, underscore,
	// build-tag-excluded, or not Go at all.
	if rep.Files != 5 {
		t.Fatalf("Files = %d, want 5 (report: %s)", rep.Files, rep.Summary())
	}
	if rep.Transformed != 2 || rep.Pragma != 3 || rep.Copied != 3 {
		t.Fatalf("Transformed = %d Pragma = %d Copied = %d, want 2/3/3 (%s)", rep.Transformed, rep.Pragma, rep.Copied, rep.Summary())
	}
	for _, want := range []string{"a.go", "sub/b.go"} {
		got, err := os.ReadFile(filepath.Join(out, filepath.FromSlash(want)))
		if err != nil {
			t.Fatalf("missing output %s: %v", want, err)
		}
		if !bytes.Contains(got, []byte("omp.Parallel(")) {
			t.Errorf("%s not lowered", want)
		}
		if !bytes.HasPrefix(got, []byte("// Code generated by gompcc")) {
			t.Errorf("%s lacks the generated-code header", want)
		}
	}
	// A generated file is copied, its pragma-like text untouched.
	for rel, want := range map[string]string{"plain.go": plainSrc, "strlit.go": stringPragmaSrc, "gen.go": gen} {
		if got, err := os.ReadFile(filepath.Join(out, rel)); err != nil || string(got) != want {
			t.Errorf("%s not a verbatim copy (%v):\n%s", rel, err, got)
		}
	}
	for _, absent := range []string{"a_test.go", "vendor/v.go", "testdata/td.go", ".hidden/h.go", "_skip/s.go", "tagged.go", "sub/x", "go.mod"} {
		if _, err := os.Stat(filepath.Join(out, filepath.FromSlash(absent))); err == nil {
			t.Errorf("%s written, want skipped", absent)
		}
	}
}

// The acceptance-criterion warm run: a second pass over an unchanged
// tree re-transforms zero files, verified through the manifest too.
func TestWarmRunTransformsNothing(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{"a.go": pragmaSrc, "sub/b.go": pragmaSrc, "plain.go": plainSrc})
	cfg := Config{Module: root, OutDir: t.TempDir(), Jobs: 4}
	cold := mustRun(t, cfg)
	if cold.Transformed != 2 || cold.Copied != 1 || cold.Cached != 0 {
		t.Fatalf("cold pass: %s", cold.Summary())
	}
	warm := mustRun(t, cfg)
	if warm.Transformed != 0 || warm.Copied != 0 || warm.Cached != 3 {
		t.Fatalf("warm pass re-transformed: %s", warm.Summary())
	}
	m := loadManifest(filepath.Join(root, cacheDirName, manifestName), core.EngineVersion, cfg.flagKey())
	if m == nil {
		t.Fatal("manifest unreadable after warm pass")
	}
	if len(m.Files) != 3 {
		t.Fatalf("manifest entries = %d, want 3", len(m.Files))
	}
	if e := m.Files["a.go"]; e.Action != actionTransform {
		t.Fatalf("manifest a.go entry = %+v", e)
	}
	if e := m.Files["plain.go"]; e.Action != actionCopy {
		t.Fatalf("manifest plain.go entry = %+v", e)
	}
}

// Editing one file invalidates exactly that file, and a file new since
// the last pass is transformed beside the cached rest.
func TestEditRetransformsOnlyChangedFile(t *testing.T) {
	root, out := t.TempDir(), t.TempDir()
	writeTree(t, root, map[string]string{"a.go": pragmaSrc, "b.go": pragmaSrc})
	cfg := Config{Module: root, OutDir: out}
	mustRun(t, cfg)
	writeTree(t, root, map[string]string{"b.go": strings.Replace(pragmaSrc, "Sum", "Sum2", 1)})
	rep := mustRun(t, cfg)
	if rep.Transformed != 1 || rep.Cached != 1 {
		t.Fatalf("after edit: %s", rep.Summary())
	}
	writeTree(t, root, map[string]string{"c.go": strings.Replace(pragmaSrc, "Sum", "Sum3", 1)})
	rep = mustRun(t, cfg)
	if rep.Files != 3 || rep.Transformed != 1 || rep.Cached != 2 {
		t.Fatalf("after new file: %s", rep.Summary())
	}
	if got, err := os.ReadFile(filepath.Join(out, "c.go")); err != nil || !bytes.Contains(got, []byte("omp.Parallel(")) {
		t.Fatalf("new file not transformed into the mirror (%v):\n%s", err, got)
	}
}

// Deleting an output makes the next pass regenerate it despite the
// hash match — the manifest trusts disk, not itself.
func TestDeletedOutputRegenerates(t *testing.T) {
	root, out := t.TempDir(), t.TempDir()
	writeTree(t, root, map[string]string{"a.go": pragmaSrc})
	cfg := Config{Module: root, OutDir: out}
	mustRun(t, cfg)
	if err := os.Remove(filepath.Join(out, "a.go")); err != nil {
		t.Fatal(err)
	}
	rep := mustRun(t, cfg)
	if rep.Transformed != 1 {
		t.Fatalf("deleted output not regenerated: %s", rep.Summary())
	}
	if _, err := os.Stat(filepath.Join(out, "a.go")); err != nil {
		t.Fatal("output still missing after pass")
	}
}

// A flag-set change discards the whole cache.
func TestFlagChangeInvalidatesCache(t *testing.T) {
	root, out := t.TempDir(), t.TempDir()
	writeTree(t, root, map[string]string{"a.go": pragmaSrc})
	mustRun(t, Config{Module: root, OutDir: out})
	rep := mustRun(t, Config{Module: root, OutDir: out, Profile: true})
	if rep.Transformed != 1 || rep.Cached != 0 {
		t.Fatalf("profile-flag change did not invalidate: %s", rep.Summary())
	}
}

func TestCacheOff(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{"a.go": pragmaSrc})
	cfg := Config{Module: root, OutDir: t.TempDir(), CacheDir: CacheOff}
	mustRun(t, cfg)
	rep := mustRun(t, cfg)
	if rep.Transformed != 1 || rep.Cached != 0 {
		t.Fatalf("cache=off still cached: %s", rep.Summary())
	}
	if _, err := os.Stat(filepath.Join(root, cacheDirName)); err == nil {
		t.Fatal("cache directory created with caching disabled")
	}
}

// A driver needs a mirror root other than the module, which it would
// overwrite; the refusal names gompcc's flag for it.
func TestNewNeedsSeparateOutDir(t *testing.T) {
	root := t.TempDir()
	for _, out := range []string{"", root, filepath.Join(root, "sub", "..")} {
		if _, err := New(Config{Module: root, OutDir: out}); err == nil || !strings.Contains(err.Error(), "-outdir") {
			t.Errorf("New with OutDir %q: %v, want an error naming -outdir", out, err)
		}
	}
}

// A package that holds gompcc -o output (internal/npb/<k>/omp.go is one)
// keeps it in the mirror: the generated file is copied byte for byte and
// never transformed, even where it still holds pragma-like lines, so the
// mirrored package keeps every declaration it had.
func TestMirrorCopiesGeneratedFiles(t *testing.T) {
	root, out := t.TempDir(), t.TempDir()
	tr, err := core.Transform([]byte(pragmaSrc), core.Options{Filename: "_omp/sum.go"})
	if err != nil {
		t.Fatal(err)
	}
	generated := string(GeneratedHeader("_omp/sum.go")) + string(tr.Output) + "\n//omp barrier\n"
	writeTree(t, root, map[string]string{"_omp/sum.go": pragmaSrc, "omp.go": generated, "plain.go": plainSrc})
	rep := mustRun(t, Config{Module: root, OutDir: out})
	if rep.Files != 2 || rep.Pragma != 0 || rep.Transformed != 0 || rep.Copied != 2 {
		t.Fatalf("mirror pass: %s", rep.Summary())
	}
	if got, err := os.ReadFile(filepath.Join(out, "omp.go")); err != nil || string(got) != generated {
		t.Fatalf("generated omp.go not copied verbatim (%v):\n%s", err, got)
	}
}

// Mirror layout: transformed files replace their originals under the
// out root, pragma-free (and string-literal-only) files copy verbatim,
// and the result is a buildable tree.
func TestMirrorLayout(t *testing.T) {
	root := t.TempDir()
	out := t.TempDir()
	writeTree(t, root, map[string]string{"a.go": pragmaSrc, "plain.go": plainSrc, "strlit.go": stringPragmaSrc})
	rep := mustRun(t, Config{Module: root, OutDir: out, Jobs: 2})
	if rep.Transformed != 1 || rep.Copied != 2 {
		t.Fatalf("mirror pass: %s", rep.Summary())
	}
	a, err := os.ReadFile(filepath.Join(out, "a.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(a, []byte("omp.Parallel(")) || !bytes.HasPrefix(a, []byte("// Code generated by gompcc")) {
		t.Errorf("mirror a.go not transformed:\n%s", a)
	}
	for rel, want := range map[string]string{"plain.go": plainSrc, "strlit.go": stringPragmaSrc} {
		got, err := os.ReadFile(filepath.Join(out, rel))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("mirror %s not a verbatim copy", rel)
		}
	}
	warm := mustRun(t, Config{Module: root, OutDir: out, Jobs: 2})
	if warm.Transformed != 0 || warm.Copied != 0 || warm.Cached != 3 {
		t.Fatalf("mirror warm pass: %s", warm.Summary())
	}
}

// A package whose function body lives in assembly builds from its
// mirror: the _amd64.s file is copied verbatim beside the transformed
// source, and of it and its //go:build !amd64 Go fallback the mirror keeps
// what the build compiles, as for .go files.
func TestMirrorCopiesAssembly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go build on the mirror")
	}
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	root, out := t.TempDir(), t.TempDir()
	writeTree(t, root, map[string]string{
		"p.go":         strings.Replace(pragmaSrc, "s += a[i]", "s = add(s, a[i])", 1),
		"add_decl.go":  "//go:build amd64\n\npackage p\n\nfunc add(a, b int) int\n",
		"add_other.go": "//go:build !amd64\n\npackage p\n\nfunc add(a, b int) int { return a + b }\n",
		"add_amd64.s": "#include \"textflag.h\"\n\n" +
			"TEXT ·add(SB), NOSPLIT, $0-24\n\tMOVQ a+0(FP), AX\n\tADDQ b+8(FP), AX\n\tMOVQ AX, ret+16(FP)\n\tRET\n",
		"notes.txt": "not a source\n",
	})
	rep := mustRun(t, Config{Module: root, OutDir: out})
	want := 2 // p.go and the Go fallback
	if runtime.GOARCH == "amd64" {
		want = 3 // p.go, the declaration and the assembly
		if got, err := os.ReadFile(filepath.Join(out, "add_amd64.s")); err != nil || !bytes.Contains(got, []byte("ADDQ")) {
			t.Fatalf("add_amd64.s not copied into the mirror (%v)", err)
		}
	}
	if rep.Files != want || rep.Transformed != 1 {
		t.Fatalf("mirror pass: %s", rep.Summary())
	}
	if _, err := os.Stat(filepath.Join(out, "notes.txt")); err == nil {
		t.Error("notes.txt copied, want skipped")
	}
	gomod := "module m\n\ngo 1.24\n\nrequire gomp v0.0.0\n\nreplace gomp => " + repoRoot + "\n"
	writeTree(t, out, map[string]string{"go.mod": gomod})
	cmd := exec.Command("go", "build", "./...")
	cmd.Dir = out
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build of the mirror: %v\n%s", err, b)
	}
}

// A package that embeds files builds from its mirror: what its //go:embed
// patterns match, a file and two directory trees, is copied verbatim,
// leaving out the '.' and '_' names a plain directory pattern skips. Two
// of its files embed, so the workers share the package's claim. One tree
// holds a package of the module, whose file the mirror keeps transformed.
func TestMirrorCopiesEmbeddedFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go run on the mirror")
	}
	root, out := t.TempDir(), t.TempDir()
	writeTree(t, root, map[string]string{
		"cmd/show/main.go": `package main

import (
	"embed"
	"fmt"
	"io/fs"
)

//go:embed greeting.txt
var greeting string

//go:embed static
var static embed.FS

//go:embed all:extra
var extra embed.FS

func main() {
	fmt.Print(greeting)
	for _, fsys := range []fs.FS{static, extra} {
		fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				b, _ := fs.ReadFile(fsys, p)
				fmt.Printf("%s: %s", p, b)
			}
			return err
		})
	}
}
`,
		"cmd/show/again.go":           "package main\n\nimport \"embed\"\n\n//go:embed greeting.txt\nvar again string\n\n//go:embed lib\nvar lib embed.FS\n",
		"cmd/show/lib/sum.go":         pragmaSrc,
		"cmd/show/greeting.txt":       "hello\n",
		"cmd/show/static/a.txt":       "a\n",
		"cmd/show/static/inner/b.txt": "b\n",
		"cmd/show/static/.hidden":     "h\n",
		"cmd/show/static/_skip/c.txt": "c\n",
		"cmd/show/extra/_keep.txt":    "k\n",
		"cmd/show/unused/d.txt":       "d\n",
		"go.mod":                      "module m\n\ngo 1.24\n",
	})
	mustRun(t, Config{Module: root, OutDir: out})
	// lib/sum.go is embedded and also a package file the crawl transforms:
	// the transformed file must stay in the mirror, on a warm pass too.
	mustRun(t, Config{Module: root, OutDir: out})
	if b, err := os.ReadFile(filepath.Join(out, "cmd", "show", "lib", "sum.go")); err != nil || !bytes.HasPrefix(b, GeneratedHeader("cmd/show/lib/sum.go")) {
		t.Errorf("mirrored lib/sum.go is not the transformed file (%v):\n%s", err, b)
	}
	for _, skipped := range []string{"static/.hidden", "static/_skip", "unused"} {
		if _, err := os.Stat(filepath.Join(out, "cmd", "show", filepath.FromSlash(skipped))); err == nil {
			t.Errorf("%s copied into the mirror, want skipped", skipped)
		}
	}
	writeTree(t, out, map[string]string{"go.mod": "module m\n\ngo 1.24\n"})
	cmd := exec.Command("go", "run", "./cmd/show")
	cmd.Dir = out
	b, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run of the mirror: %v\n%s", err, b)
	}
	if want := "hello\nstatic/a.txt: a\nstatic/inner/b.txt: b\nextra/_keep.txt: k\n"; string(b) != want {
		t.Errorf("the mirrored program printed %q, want %q", b, want)
	}
}

// A mirror root nested inside the module must not be crawled back up.
func TestNestedOutDirNotRecrawled(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{"a.go": pragmaSrc})
	out := filepath.Join(root, "gen")
	mustRun(t, Config{Module: root, OutDir: out})
	rep := mustRun(t, Config{Module: root, OutDir: out})
	if rep.Files != 1 {
		t.Fatalf("output tree re-crawled: %s", rep.Summary())
	}
}

// A directory below the root that holds a go.mod is another module, which
// go build ./... leaves out: the mirror must too, or its files land in out
// as packages of the outer module.
func TestMirrorSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"a.go":            pragmaSrc,
		"nested/go.mod":   "module nested\n",
		"nested/b.go":     plainSrc,
		"nested/sub/c.go": plainSrc,
	})
	out := filepath.Join(root, "gen")
	if rep := mustRun(t, Config{Module: root, OutDir: out}); rep.Files != 1 {
		t.Fatalf("nested module crawled: %s", rep.Summary())
	}
	if _, err := os.Stat(filepath.Join(out, "nested")); err == nil {
		t.Fatal("nested module copied into the mirror")
	}
}

// One bad file fails the pass but masks nothing: every other file is
// still processed and the aggregate error names the casualty.
func TestDiagnosticsAggregate(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"a.go":   pragmaSrc,
		"bad.go": "package p\n\nfunc f() {\n\t//omp paralel\n\t{\n\t}\n}\n",
		"z.go":   pragmaSrc,
	})
	out := t.TempDir()
	d, err := New(Config{Module: root, OutDir: out, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || rep.Transformed != 2 {
		t.Fatalf("aggregation: %s", rep.Summary())
	}
	if len(rep.Diags) != 1 || rep.Diags[0].Path != "bad.go" {
		t.Fatalf("diags = %+v", rep.Diags)
	}
	aggErr := rep.Err()
	if aggErr == nil || !strings.Contains(aggErr.Error(), "bad.go:4") || !strings.Contains(aggErr.Error(), "1 of 3 files failed") {
		t.Fatalf("aggregate error = %v", aggErr)
	}
	for _, want := range []string{"a.go", "z.go"} {
		if _, err := os.Stat(filepath.Join(out, want)); err != nil {
			t.Errorf("%s not produced despite unrelated failure", want)
		}
	}
	if _, err := os.Stat(filepath.Join(out, "bad.go")); err == nil {
		t.Error("failed file produced an output")
	}
	// The failed file must not be recorded as clean: the next pass
	// retries it rather than treating it as cached.
	rep2, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Failed != 1 || rep2.Cached != 2 {
		t.Fatalf("failed file not retried: %s", rep2.Summary())
	}
}

// A pass reports its throughput in its Report: the cold pass counts the
// one transform and its time, the warm pass the cache hits (the transform
// and plain.go's copy).
func TestReportCountsColdWarmAndTransformTime(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{"a.go": pragmaSrc, "plain.go": plainSrc})
	cfg := Config{Module: root, OutDir: t.TempDir()}
	cold := mustRun(t, cfg)
	if cold.Transformed != 1 || cold.TransformNs <= 0 {
		t.Fatalf("cold pass: %s, transform time %dns; want 1 transformed in > 0ns", cold.Summary(), cold.TransformNs)
	}
	if warm := mustRun(t, cfg); warm.Cached != 2 || warm.Transformed != 0 {
		t.Fatalf("warm pass: %s; want 2 cached, 0 transformed", warm.Summary())
	}
}

// linkOld puts content "old" at path and a hard link to it at keep: a write
// that replaces path's directory entry leaves keep alone, while a write
// into the existing file would change both.
func linkOld(t *testing.T, path, keep string) {
	t.Helper()
	writeTree(t, filepath.Dir(path), map[string]string{filepath.Base(path): "old"})
	if err := os.Link(path, keep); err != nil {
		t.Skipf("no hard links here: %v", err)
	}
}

func assertReplaced(t *testing.T, path, keep string) {
	t.Helper()
	if got, err := os.ReadFile(keep); err != nil || string(got) != "old" {
		t.Errorf("%s was written into the existing file, not replaced (its old link reads %q, %v)", path, got, err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) == "old" {
		t.Errorf("%s not rewritten: %q, %v", path, got, err)
	}
}

// noTemps fails if a temporary of an atomic write is left under root.
func noTemps(t *testing.T, root string) {
	t.Helper()
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err == nil && strings.Contains(d.Name(), ".tmp") {
			t.Errorf("temporary left behind: %s", path)
		}
		return err
	})
}

// A transformed output is the generated-code header followed by exactly
// what core.Transform returns, whether the mirror lies apart from the
// module or inside it; it replaces the file rather than writing through an
// old link, and no temporary is left behind.
func TestOutputIsHeaderAndTransform(t *testing.T) {
	for _, nested := range []bool{false, true} {
		name := map[bool]string{false: "mirror", true: "nested"}[nested]
		t.Run(name, func(t *testing.T) {
			root := t.TempDir()
			files := map[string]string{"a.go": pragmaSrc, "sub/b.go": strings.Replace(pragmaSrc, "Sum", "Total", 1), "plain.go": plainSrc}
			writeTree(t, root, files)
			cfg := Config{Module: root, OutDir: t.TempDir(), Jobs: 2}
			if nested {
				cfg.OutDir = filepath.Join(root, "gen")
			}
			keep := filepath.Join(root, "keep.txt")
			linkOld(t, filepath.Join(cfg.OutDir, "a.go"), keep)
			rep := mustRun(t, cfg)
			if rep.Transformed != 2 {
				t.Fatalf("pass: %s", rep.Summary())
			}
			for _, rel := range []string{"a.go", "sub/b.go"} {
				tr, err := core.Transform([]byte(files[rel]), core.Options{Filename: rel})
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(cfg.OutDir, filepath.FromSlash(rel)))
				if err != nil {
					t.Fatal(err)
				}
				if want := append(GeneratedHeader(rel), tr.Output...); !bytes.Equal(got, want) {
					t.Errorf("%s:\n%s\nwant header + Transform output:\n%s", rel, got, want)
				}
			}
			assertReplaced(t, filepath.Join(cfg.OutDir, "a.go"), keep)
			noTemps(t, root)
			noTemps(t, cfg.OutDir)
		})
	}
}

// The -toolexec rewrite writes its temporaries through WriteFileAtomic too.
func TestToolexecOutputIsAtomic(t *testing.T) {
	src := t.TempDir()
	writeTree(t, src, map[string]string{"hot.go": pragmaSrc})
	tmp := t.TempDir()
	dst, keep := filepath.Join(tmp, "d00", "hot.go"), filepath.Join(tmp, "keep.txt")
	linkOld(t, dst, keep)
	got, n, err := rewriteCompileArgs([]string{"compile", filepath.Join(src, "hot.go")}, tmp)
	if err != nil || n != 1 || got[1] != dst {
		t.Fatalf("rewrite = %v, %d, %v; want %s", got, n, err, dst)
	}
	assertReplaced(t, dst, keep)
	noTemps(t, tmp)
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.go")
	if err := WriteFileAtomic(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "new" {
		t.Fatalf("content = %q, %v", got, err)
	}
	// A failed write (unwritable target directory) leaves no temp files
	// and no partial output.
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "x.go"), []byte("x"), 0o644); err == nil {
		t.Fatal("write into missing directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("stray files after atomic writes: %v", entries)
	}
}

// Each worker reads and lowers its files into buffers it reuses from file
// to file, so a file must come out exactly as if it had its own: a short
// file after a long one, a file Transform leaves unchanged, a copied non-Go
// file and an embedded file, over two passes in one process at one and at
// two workers.
func TestBufferReuseAcrossFiles(t *testing.T) {
	long := pragmaSrc
	for i := range 12 {
		long += strings.Replace(pragmaSrc[len("package p\n"):], "Sum", fmt.Sprintf("Sum%d", i), 1)
	}
	files := map[string]string{
		"a.go":       long,
		"b.go":       strings.Replace(pragmaSrc, "Sum", "Short", 1),
		"c.go":       stringPragmaSrc,
		"d.s":        "// assembly text, copied\n",
		"e.go":       "package p\n\nimport _ \"embed\"\n\n//go:embed e.txt\nvar e string\n",
		"e.txt":      "e\n",
		"f/plain.go": plainSrc,
	}
	root := t.TempDir()
	writeTree(t, root, files)
	want := map[string][]byte{}
	for rel, src := range files {
		want[rel] = []byte(src)
		if strings.HasSuffix(rel, ".go") {
			tr, err := core.Transform([]byte(src), core.Options{Filename: rel})
			if err != nil {
				t.Fatal(err)
			}
			if tr.Changed {
				want[rel] = append(GeneratedHeader(rel), tr.Output...)
			}
		}
	}
	if !bytes.Equal(want["c.go"], []byte(files["c.go"])) || len(want["a.go"]) < 4*len(want["b.go"]) {
		t.Fatal("the module does not hold what the test needs: an unchanged c.go, an a.go much longer than b.go")
	}
	for _, jobs := range []int{1, 2} {
		for pass := range 2 {
			out := t.TempDir()
			rep := mustRun(t, Config{Module: root, OutDir: out, Jobs: jobs, CacheDir: CacheOff})
			if rep.Transformed != 2 || rep.Copied != 4 {
				t.Fatalf("jobs=%d pass %d: %s", jobs, pass, rep.Summary())
			}
			for rel, w := range want {
				got, err := os.ReadFile(filepath.Join(out, filepath.FromSlash(rel)))
				if err != nil {
					t.Fatalf("jobs=%d pass %d: %v", jobs, pass, err)
				}
				if !bytes.Equal(got, w) {
					t.Errorf("jobs=%d pass %d: %s is\n%s\nwant\n%s", jobs, pass, rel, got, w)
				}
			}
		}
	}
}
