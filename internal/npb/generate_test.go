package npb

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Each kernel's omp flavour is gompcc output for an annotated source under
// the kernel's _omp/ directory, which the go tool ignores. The kernel's
// //go:generate line names both files; these tests hold the pair together.
var kernels = []string{"cg", "ep", "is"}

// generated returns the one `go run gomp/cmd/gompcc -o out in` line of a
// kernel package's go files: its output and its input, relative to the
// package directory.
func generated(t *testing.T, dir string) (out, in string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(src), "\n") {
			cmd, ok := strings.CutPrefix(line, "//go:generate ")
			if !ok {
				continue
			}
			args := strings.Fields(cmd)
			if len(args) != 6 || strings.Join(args[:4], " ") != "go run gomp/cmd/gompcc -o" {
				t.Fatalf("%s: %q is not `go run gomp/cmd/gompcc -o out in`", f, line)
			}
			if out != "" {
				t.Fatalf("%s: a second //go:generate line", dir)
			}
			out, in = args[4], args[5]
		}
	}
	if out == "" {
		t.Fatalf("%s: no //go:generate line", dir)
	}
	if !strings.HasPrefix(filepath.ToSlash(in), "_omp/") {
		t.Fatalf("%s: annotated source %s is outside _omp/, so the go tool would build it", dir, in)
	}
	return out, in
}

// Regenerating each omp flavour with its //go:generate command gives the
// committed file byte for byte.
func TestGeneratedFlavoursUpToDate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds gompcc")
	}
	tmp := t.TempDir()
	gompcc := filepath.Join(tmp, "gompcc")
	if out, err := exec.Command("go", "build", "-o", gompcc, "gomp/cmd/gompcc").CombinedOutput(); err != nil {
		t.Fatalf("building gompcc: %v\n%s", err, out)
	}
	for _, k := range kernels {
		out, in := generated(t, k)
		fresh := filepath.Join(tmp, k+".go")
		cmd := exec.Command(gompcc, "-o", fresh, in)
		cmd.Dir = k
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s: gompcc -o %s %s: %v\n%s", k, out, in, err, msg)
		}
		want, err := os.ReadFile(fresh)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(k, out))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s/%s differs from gompcc's output for %s: run go generate ./internal/npb/...", k, out, in)
		}
	}
}

// Each annotated source is also plain Go, its pragmas comments: swapped in
// for its generated file, it builds and vets with the kernel's tests. This
// is what type-checks the _omp/ sources, which go vet ./... never reaches.
func TestAnnotatedSourcesBuildSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet")
	}
	replace := map[string]string{}
	var pkgs []string
	for _, k := range kernels {
		out, in := generated(t, k)
		o, err := filepath.Abs(filepath.Join(k, out))
		if err != nil {
			t.Fatal(err)
		}
		i, err := filepath.Abs(filepath.Join(k, in))
		if err != nil {
			t.Fatal(err)
		}
		replace[o] = i
		pkgs = append(pkgs, "gomp/internal/npb/"+k)
	}
	overlay, err := json.Marshal(map[string]any{"Replace": replace})
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "overlay.json")
	if err := os.WriteFile(file, overlay, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command("go", append([]string{"vet", "-overlay", file}, pkgs...)...).CombinedOutput(); err != nil {
		t.Fatalf("go vet with the annotated sources in place: %v\n%s", err, out)
	}
}
