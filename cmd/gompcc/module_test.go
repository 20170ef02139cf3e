package main

import (
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"gomp/internal/driver"
)

// copyTestdataDir stages cmd/gompcc/testdata/dir's inputs (not the
// .golden files) as a fresh module root.
func copyTestdataDir(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	entries, err := os.ReadDir(filepath.Join("testdata", "dir"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join("testdata", "dir", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// snapshotTree reads every file under root (the cache manifest
// included) keyed by slash-relative path.
func snapshotTree(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		out[filepath.ToSlash(rel)] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// The acceptance criterion, end to end through the CLI layer: the
// second consecutive -module run over an unchanged tree performs zero
// re-transforms and copies nothing again.
func TestModuleWarmRunIsAllCacheHits(t *testing.T) {
	root, out := copyTestdataDir(t), t.TempDir()
	var log bytes.Buffer
	if err := runModule(root, out, "", 4, false, &log); err != nil {
		t.Fatalf("cold run: %v\n%s", err, log.String())
	}
	cold := log.String()
	if !strings.Contains(cold, "2 transformed, 0 cached, 1 copied") {
		t.Fatalf("cold summary unexpected: %s", cold)
	}
	log.Reset()
	if err := runModule(root, out, "", 4, false, &log); err != nil {
		t.Fatalf("warm run: %v\n%s", err, log.String())
	}
	warm := log.String()
	if !strings.HasSuffix(warm, "0 transformed, 3 cached\n") {
		t.Fatalf("warm run re-transformed: %s", warm)
	}
}

// -module without -outdir is refused, naming the flag.
func TestModuleNeedsOutdir(t *testing.T) {
	err := runModule(copyTestdataDir(t), "", "off", 1, false, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-outdir") {
		t.Fatalf("err = %v, want one naming -outdir", err)
	}
}

// Determinism: -jobs 1 and -jobs 8 produce byte-identical mirrors and
// manifests over testdata/dir — the parallel fan-out shares nothing
// and the manifest is a pure function of tree content and flags.
func TestModuleJobsDeterminism(t *testing.T) {
	trees := map[int][2]string{}
	for _, jobs := range []int{1, 8} {
		root, out := copyTestdataDir(t), t.TempDir()
		d, err := driver.New(driver.Config{Module: root, OutDir: out, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		trees[jobs] = [2]string{root, out}
	}
	for i, what := range []string{"module (manifest)", "mirror"} {
		serial := snapshotTree(t, trees[1][i])
		parallel := snapshotTree(t, trees[8][i])
		if len(serial) != len(parallel) {
			t.Fatalf("%s tree shapes differ: %d vs %d files", what, len(serial), len(parallel))
		}
		for rel, want := range serial {
			got, ok := parallel[rel]
			if !ok {
				t.Errorf("missing in the -jobs 8 %s: %s", what, rel)
				continue
			}
			if got != want {
				t.Errorf("%s %s differs between -jobs 1 and -jobs 8", what, rel)
			}
		}
	}
	if _, ok := snapshotTree(t, trees[1][0])[".gompcc-cache/manifest.json"]; !ok {
		t.Fatal("manifest not written")
	}
}

// A mirror nested inside the module it mirrors is not crawled back: a
// second run keeps the file count stable.
func TestModuleOutputsNotRecrawled(t *testing.T) {
	root := copyTestdataDir(t)
	var log bytes.Buffer
	for i := 0; i < 2; i++ {
		if err := runModule(root, filepath.Join(root, "gen"), "", 2, false, &log); err != nil {
			t.Fatal(err)
		}
	}
	if strings.Count(log.String(), "3 files (2 pragma)") != 2 {
		t.Fatalf("file count drifted across runs:\n%s", log.String())
	}
}

// The -toolexec recipe end to end: a plain `go build` of an annotated
// module, with gompcc interposed, produces a binary whose parallel
// loop actually ran through the runtime.
func TestToolexecGoBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries")
	}
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	gompcc := filepath.Join(work, "gompcc")
	build := exec.Command("go", "build", "-o", gompcc, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building gompcc: %v\n%s", err, out)
	}

	mod := filepath.Join(work, "app")
	if err := os.MkdirAll(mod, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"go.mod": "module app\n\ngo 1.24\n\nrequire gomp v0.0.0\n\nreplace gomp => " + repoRoot + "\n",
		"main.go": `package main

// The blank runtime import is the one requirement of the -toolexec
// recipe: the go command computes the build graph from the original
// source, so the package the generated code calls must already be a
// declared dependency (the way cgo requires import "C").
import (
	"fmt"

	_ "gomp/omp"
)

func main() {
	const n = 1000
	sum := 0
	//omp parallel for reduction(+:sum) num_threads(4)
	for i := 0; i < n; i++ {
		sum += i
	}
	fmt.Println("sum", sum)
}
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(mod, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bin := filepath.Join(work, "app.bin")
	cmd := exec.Command("go", "build", "-toolexec", gompcc+" -toolexec", "-o", bin, ".")
	cmd.Dir = mod
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build -toolexec: %v\n%s", err, out)
	}
	out, err := exec.Command(bin).CombinedOutput()
	if err != nil {
		t.Fatalf("running built app: %v\n%s", err, out)
	}
	if want := "sum 499500"; !strings.Contains(string(out), want) {
		t.Fatalf("app output = %q, want %q", out, want)
	}
	// The serial build (no toolexec) of the identical source must agree
	// — the graceful-degradation property the pragma comments promise.
	serialBin := filepath.Join(work, "serial.bin")
	cmd = exec.Command("go", "build", "-o", serialBin, ".")
	cmd.Dir = mod
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("serial go build: %v\n%s", err, out)
	}
	out, err = exec.Command(serialBin).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "sum 499500") {
		t.Fatalf("serial app output = %q, %v", out, err)
	}
	// The two builds compiled main from the same source with the same
	// compiler, but are different cache entries: the serial build, run
	// after the toolexec one, did not reuse its object.
	for bin, want := range map[string]bool{bin: true, serialBin: false} {
		syms, err := exec.Command("go", "tool", "nm", bin).CombinedOutput()
		if err != nil {
			t.Fatalf("go tool nm %s: %v\n%s", bin, err, syms)
		}
		if got := strings.Contains(string(syms), "gomp/omp.ForStart"); got != want {
			t.Errorf("%s references gomp/omp.ForStart: %v, want %v", filepath.Base(bin), got, want)
		}
	}
}
