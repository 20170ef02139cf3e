package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json; DisallowUnknownFields makes "exactly
// these keys" part of the test.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// The declaration and the program agree on every name and unit, and the
// declaration stays inside the limits the harness enforces.
func TestDeclarationMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	nameRx := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRx := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRx.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != 6 || len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented, want 6", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.EndToEnd) != len(endToEndUnits) {
		t.Fatalf("%d end-to-end metrics declared, %d printed (limit 16)", len(b.EndToEnd), len(endToEndUnits))
	}
	for _, m := range b.EndToEnd {
		name(m.Name)
		if unit, ok := endToEndUnits[m.Name]; !ok || unit != m.Unit || !unitRx.MatchString(m.Unit) {
			t.Errorf("end-to-end %s: unit %q declared, %q printed", m.Name, m.Unit, unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be seconds, lower is better")
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}

	if len(b.PerLayer) > 128 || len(b.PerLayer) != len(perLayerUnits) {
		t.Fatalf("%d per-layer metrics declared, %d printed (limit 128)", len(b.PerLayer), len(perLayerUnits))
	}
	for _, m := range b.PerLayer {
		name(m.Name)
		if unit, ok := perLayerUnits[m.Name]; !ok || unit != m.Unit || !unitRx.MatchString(m.Unit) {
			t.Errorf("per-layer %s: unit %q declared, %q printed", m.Name, m.Unit, unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer %s: better %q", m.Name, m.Better)
		}
	}

	if b.RunSeconds < 1 || b.RunSeconds > 60 || !slices.Equal(b.Paths, []string{"benchmark"}) || len(b.Command) == 0 {
		t.Errorf("run_seconds %d, paths %v, command %v", b.RunSeconds, b.Paths, b.Command)
	}
}

// The generators read nothing but the seed.
func TestGeneratorsFollowSeed(t *testing.T) {
	a, b, c := genCorpus(7), genCorpus(7), genCorpus(8)
	if len(a.files) != corpusPackages*corpusPerPkg || a.pragma == 0 || a.pragma == len(a.files) {
		t.Fatalf("corpus has %d files, %d with pragmas: want both kinds", len(a.files), a.pragma)
	}
	same := true
	for i := range a.files {
		if !bytes.Equal(a.files[i].src, b.files[i].src) || a.files[i].rel != b.files[i].rel {
			t.Fatalf("seed 7 gave two different %s", a.files[i].rel)
		}
		same = same && bytes.Equal(a.files[i].src, c.files[i].src)
	}
	if same {
		t.Error("seeds 7 and 8 gave the same corpus")
	}

	l1, l2, l3 := genLoops(7, false), genLoops(7, false), genLoops(8, false)
	if !slices.Equal(l1.cost, l2.cost) || l1.want != l2.want || slices.Equal(l1.cost, l3.cost) {
		t.Error("loop cost vector does not follow the seed")
	}
	s1, s2, s3 := genStorm(7), genStorm(7), genStorm(8)
	if !slices.Equal(s1.sizes, s2.sizes) || slices.Equal(s1.sizes, s3.sizes) {
		t.Error("region sizes do not follow the seed")
	}
}

// The loop oracle is a closed form; it has to agree with the loop it stands for.
func TestClosedFormMatchesLoop(t *testing.T) {
	for _, steps := range []int32{0, 1, 2, 3, 50, 257, 20000} {
		for _, x := range []uint64{0, 1, 0x9e3779b97f4a7c15} {
			if got, want := lcgJump(x, steps), burn(x, steps); got != want {
				t.Errorf("lcgJump(%#x, %d) = %#x, the loop gives %#x", x, steps, got, want)
			}
		}
	}
}

func TestPinsMatchThisCheckout(t *testing.T) {
	if err := checkPins(".."); err != nil {
		t.Fatal(err)
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if label, _ := tailPercentile(xs); label != "p90" {
		t.Errorf("n=100 reports %s, want p90", label)
	}
	if label, _ := tailPercentile(xs[:44]); label != "p75" {
		t.Errorf("n=44 reports %s, want p75", label)
	}
	if got := quantile(xs, 0.5); got != 49.5 {
		t.Errorf("median of 0..99 = %v", got)
	}
}

func quickRun(t *testing.T, workload string, seed uint64, traced bool) *result {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWorkload(options{workload: workload, seed: seed, seconds: 1, trace: traced, quick: true, root: root}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func checkNames(t *testing.T, res *result, units map[string]string) {
	t.Helper()
	if len(res.Metrics) != len(units) {
		t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(units))
	}
	for name, unit := range units {
		if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
			t.Errorf("metric %s: printed %v, want unit %q", name, m, unit)
		}
	}
}

// -quick on every workload: every output verifies and every end-to-end
// metric is printed once, non-zero, with its unit.
func TestQuickEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every workload and spawns the go tool")
	}
	for _, w := range workloads {
		res := quickRun(t, w.name, 1, false)
		checkNames(t, res, endToEndUnits)
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s %s = %v, end-to-end metrics are never zero", w.name, name, m.Value)
			}
		}
	}
}

// The traced pass prints every per-layer metric, writes the trace file, and
// the counts that are functions of the seed alone repeat exactly.
func TestQuickTracedPass(t *testing.T) {
	if testing.Short() {
		t.Skip("solves workloads and spawns the go tool")
	}
	a, b := quickRun(t, "region_storm", 3, true), quickRun(t, "region_storm", 3, true)
	checkNames(t, a, perLayerUnits)
	if got := a.Metrics["kmp.regions"].Value; got != stormRegions || got != b.Metrics["kmp.regions"].Value {
		t.Errorf("kmp.regions = %v then %v, want %d both times", got, b.Metrics["kmp.regions"].Value, stormRegions)
	}
	if _, err := os.Stat(filepath.Join("out", "trace-region_storm.json")); err != nil {
		t.Error(err)
	}

	c, d, e := quickRun(t, "gompcc_build", 3, true), quickRun(t, "gompcc_build", 3, true), quickRun(t, "gompcc_build", 4, true)
	checkNames(t, c, perLayerUnits)
	x := func(r *result) float64 { return r.Metrics["core.expansion_ratio"].Value }
	if x(c) != x(d) || x(c) == x(e) || x(c) <= 1 {
		t.Errorf("core.expansion_ratio: seed 3 gives %v and %v, seed 4 gives %v", x(c), x(d), x(e))
	}
}
