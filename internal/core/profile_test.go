package core

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The -profile pre-pass: functions containing pragmas gain a
// source-located span, main gains the profiler lifecycle.
func TestProfileInstrumentsPragmaFunctions(t *testing.T) {
	src := `package main

import "fmt"

func compute(n int) int {
	sum := 0
	//omp parallel for reduction(+:sum)
	for i := 0; i < n; i++ {
		sum += i
	}
	return sum
}

func helper() int { return 1 }

func main() {
	fmt.Println(compute(100) + helper())
}
`
	out, err := preprocess([]byte(src), Options{Filename: "app.go", Profile: true})
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	text := string(out)
	if !strings.Contains(text, `defer omp.ZoneAt("app.go", 5, "compute")()`) {
		t.Errorf("compute not instrumented with its file:line:\n%s", text)
	}
	if !strings.Contains(text, "defer omp.Profile()()") {
		t.Errorf("main did not gain the profiler lifecycle:\n%s", text)
	}
	if strings.Contains(text, `"helper"`) {
		t.Errorf("pragma-free helper was instrumented:\n%s", text)
	}
}

// Without pragmas the pass still instruments main (package main only),
// so profiling a not-yet-annotated program works; non-main packages
// without pragmas pass through untouched.
func TestProfileMainOnlyAndNonMain(t *testing.T) {
	mainOnly := `package main

func main() {
	println("hi")
}
`
	out, err := preprocess([]byte(mainOnly), Options{Filename: "m.go", Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "defer omp.Profile()()") {
		t.Errorf("pragma-free main not instrumented:\n%s", out)
	}
	if !strings.Contains(string(out), `omp "gomp/omp"`) {
		t.Errorf("instrumented main missing the omp import:\n%s", out)
	}

	lib := `package lib

func F() int { return 2 }
`
	out, err = preprocess([]byte(lib), Options{Filename: "lib.go", Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != lib {
		t.Errorf("pragma-free non-main package rewritten:\n%s", out)
	}
}

func TestProfileMethodReceiverNames(t *testing.T) {
	src := `package lib

type Grid struct{ c []float64 }

func (g *Grid) Relax() {
	//omp parallel for
	for i := 0; i < len(g.c); i++ {
		g.c[i] *= 0.5
	}
}
`
	out, err := preprocess([]byte(src), Options{Filename: "grid.go", Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `defer omp.ZoneAt("grid.go", 5, "Grid.Relax")()`) {
		t.Errorf("method span not named by receiver:\n%s", out)
	}
}

// The acceptance criterion end to end: -profile output compiles, runs,
// and self-reports a flat profile naming the user's pragma locations;
// GOMP_TRACE_JSON additionally exports a timeline.
func TestEndToEndProfileSelfReport(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	src := `package main

import "fmt"

func compute(n int) float64 {
	sum := 0.0
	//omp parallel for reduction(+:sum) schedule(dynamic,8)
	for i := 0; i < n; i++ {
		sum += float64(i)
	}
	return sum
}

func main() {
	fmt.Println(compute(100000))
}
`
	out, err := preprocess([]byte(src), Options{Filename: "main.go", Profile: true})
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	dir, err := os.MkdirTemp(".", "e2e-profile-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	if err := os.WriteFile(filepath.Join(dir, "main.go"), out, 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "trace.json")
	cmd := exec.Command("go", "run", "./"+dir)
	cmd.Env = append(os.Environ(), "OMP_NUM_THREADS=4", "GOMP_TRACE_JSON="+tracePath, "GOMP_METRICS=1")
	combined, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run failed: %v\n--- output ---\n%s\n--- generated ---\n%s", err, combined, out)
	}
	report := string(combined)
	for _, want := range []string{
		"gomp profile:",
		"%time",
		"main.go:5 compute", // the injected zone, named by pragma location
		"main.go:7",         // the parallel-for region itself
		"gomp_forks_total ", // GOMP_METRICS=1: the OpenMetrics exposition
	} {
		if !strings.Contains(report, want) {
			t.Errorf("self-report missing %q:\n%s", want, report)
		}
	}
	tl, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("GOMP_TRACE_JSON produced no file: %v", err)
	}
	for _, want := range []string{"traceEvents", "thread_name", "main.go:7"} {
		if !strings.Contains(string(tl), want) {
			t.Errorf("timeline missing %q", want)
		}
	}
}
