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

// Golden-file coverage of the CLI's three modes: single-file output,
// -stdout (both produce processFile's bytes), and -dir batch processing.
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
// header naming the input, so a module crawl skips the file: the module
// holding only that output has no source file to transform.
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
	if err := runModule(root, "", "_omp", "off", 1, false, false, 0, &log); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), ": 0 files (0 pragma)") {
		t.Fatalf("module crawl took the -o output for a source file:\n%s", log.String())
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

// -dir mode: files are processed in sorted filename order, every
// non-test, non-generated file gets an output (pragma-free files pass
// through), and each output matches its golden.
func TestGoldenDir(t *testing.T) {
	srcDir := filepath.Join("testdata", "dir")
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	var inputs []string
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(work, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, e.Name())
	}
	var log bytes.Buffer
	if err := processDir(work, "_omp", false, &log); err != nil {
		t.Fatal(err)
	}
	// Sorted processing order: the log mentions inputs alphabetically.
	var logged []string
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			logged = append(logged, filepath.Base(fields[1]))
		}
	}
	wantOrder := []string{"alpha.go", "beta.go", "gamma.go"}
	if strings.Join(logged, ",") != strings.Join(wantOrder, ",") {
		t.Errorf("-dir processing order = %v, want %v", logged, wantOrder)
	}
	for _, name := range inputs {
		outName := strings.TrimSuffix(name, ".go") + "_omp.go"
		got, err := os.ReadFile(filepath.Join(work, outName))
		if err != nil {
			t.Fatalf("missing -dir output %s: %v", outName, err)
		}
		// Goldens carry a .golden suffix (not .go) so they are never
		// mistaken for -dir inputs.
		compareGolden(t, filepath.Join(srcDir, strings.TrimSuffix(name, ".go")+"_omp.golden"), got)
	}
}
