package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gomp/internal/driver"
)

// Golden-file coverage of the CLI's outputs: single-file -o and -stdout
// (both processFile's bytes), and the -module mirror of testdata/dir.
// Regenerate with:
//
//	go test ./cmd/gompcc -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

func compareGolden(t *testing.T, goldenPath string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", goldenPath, got, want)
	}
}

// Single-file and -stdout modes both emit processFile's result; the golden
// pins the full preprocessed output, including the task-dependence
// lowering (DependIn/DependOut options, Priority, Mergeable, Taskyield).
func TestGoldenSingleFile(t *testing.T) {
	got, err := processFile(filepath.Join("testdata", "single.go"), false)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "single.golden"), got)
}

// -o output is processFile's result under the driver's generated-code
// header naming the input, so a module build takes it for generated: the
// mirror of a module holding only that output copies it byte for byte
// and transforms nothing.
func TestSingleFileOutputMarkedGenerated(t *testing.T) {
	in := filepath.Join("testdata", "single.go")
	root := t.TempDir()
	if err := writeFile(in, filepath.Join(root, "kernel.go"), false); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(root, "kernel.go"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "single.golden"))
	if err != nil {
		t.Fatal(err)
	}
	head := driver.GeneratedHeader(in)
	if !bytes.HasPrefix(got, head) || !bytes.Equal(got[len(head):], want) {
		t.Fatalf("-o output is not the header %q followed by single.golden:\n%s", head, got)
	}
	var log bytes.Buffer
	out := t.TempDir()
	if err := runModule(root, out, "off", 1, false, &log); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), ": 1 files (0 pragma), 0 transformed, 0 cached, 1 copied") {
		t.Fatalf("module build took the -o output for a source file:\n%s", log.String())
	}
	if mirrored, err := os.ReadFile(filepath.Join(out, "kernel.go")); err != nil || !bytes.Equal(mirrored, got) {
		t.Fatalf("mirror of the -o output is not a verbatim copy (%v):\n%s", err, mirrored)
	}
}

// The loop-transformation pipeline pinned end to end: tile strip-mines
// the matmul nest, the stacked parallel for distributes the generated
// tile-grid loops, and partial unroll emits the factor-stepped main loop
// plus its scalar remainder.
func TestGoldenTile(t *testing.T) {
	got, err := processFile(filepath.Join("testdata", "tile.go"), false)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "tile.golden"), got)
}

// The mirror of testdata/dir: each pragma-bearing file is the driver's
// generated-code header followed by its golden, the pragma-free gamma.go
// is copied verbatim, and nothing else is written.
func TestGoldenDir(t *testing.T) {
	srcDir := filepath.Join("testdata", "dir")
	out := t.TempDir()
	var log bytes.Buffer
	if err := runModule(srcDir, out, "off", 2, false, &log); err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	if !strings.Contains(log.String(), ": 3 files (2 pragma), 2 transformed, 0 cached, 1 copied") {
		t.Errorf("summary: %s", log.String())
	}
	got := snapshotTree(t, out)
	if len(got) != 3 {
		t.Errorf("mirror holds %d files, want alpha.go, beta.go and gamma.go: %v", len(got), got)
	}
	for _, name := range []string{"alpha.go", "beta.go"} {
		head := driver.GeneratedHeader(name)
		if !strings.HasPrefix(got[name], string(head)) {
			t.Errorf("%s lacks the header %q:\n%s", name, head, got[name])
			continue
		}
		// Goldens carry a .golden suffix (not .go) so they are never
		// mistaken for module sources.
		compareGolden(t, filepath.Join(srcDir, strings.TrimSuffix(name, ".go")+".golden"), []byte(got[name][len(head):]))
	}
	gamma, err := os.ReadFile(filepath.Join(srcDir, "gamma.go"))
	if err != nil {
		t.Fatal(err)
	}
	if got["gamma.go"] != string(gamma) {
		t.Errorf("gamma.go not copied verbatim:\n%s", got["gamma.go"])
	}
}
