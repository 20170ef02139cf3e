package core

import (
	"strings"
	"testing"
)

// runPreprocessed lowers src, builds it and runs it once with a team of
// four, returning stdout.
func runPreprocessed(t *testing.T, src string) string {
	t.Helper()
	return buildPreprocessed(t, src)(4)
}

// buildPreprocessed lowers src and builds it (buildProgram).
func buildPreprocessed(t *testing.T, src string) func(threads int) string {
	t.Helper()
	out, err := preprocess([]byte(src), Options{Filename: "main.go"})
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	return buildProgram(t, out)
}

// The quickstart of the paper's workflow: annotate, preprocess, run. A
// parallel-for sum with a reduction must produce the exact serial answer.
func TestEndToEndParallelForReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	got := runPreprocessed(t, `package main

import "fmt"

func main() {
	n := 100000
	sum := 0.0
	//omp parallel for reduction(+:sum) schedule(static)
	for i := 0; i < n; i++ {
		sum += float64(i)
	}
	fmt.Println(sum == float64(n)*float64(n-1)/2)
}
`)
	if strings.TrimSpace(got) != "true" {
		t.Fatalf("output = %q, want true", got)
	}
}

// Every reduction clause folds in thread order at its construct's barrier,
// so a generated program gives the same bits at a team size on every run:
// a parallel-for float sum whose value depends on the order of addition, a
// nowait max inside a region, a logical and, a two-variable clause, and an
// orphaned loop run both by a team and outside any region.
func TestEndToEndReductionsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	run := buildPreprocessed(t, `package main

import (
	"fmt"
	"math"
)

// lo is shared by the team that calls orphanMin.
var lo float64

func orphanMin(a []float64) {
	//omp for reduction(min:lo)
	for i := 0; i < len(a); i++ {
		if a[i] < lo {
			lo = a[i]
		}
	}
}

func main() {
	const n = 100003
	a := make([]float64, n)
	for i := range a {
		// Magnitudes 2^-30..2^29 with alternating signs: the sum's
		// low bits depend on the order of addition.
		a[i] = math.Ldexp(1+float64(i%7), (i*37)%60-30) * float64(1-2*(i%2))
	}

	s := 0.0
	//omp parallel for reduction(+:s)
	for i := 0; i < n; i++ {
		s += a[i]
	}

	m := math.Inf(-1)
	ok := true
	sq, ab := 0.5, 0.25
	lo = math.Inf(1)
	//omp parallel
	{
		//omp for reduction(max:m) nowait
		for i := 0; i < n; i++ {
			if a[i] > m {
				m = a[i]
			}
		}
		//omp for reduction(&&:ok)
		for i := 0; i < n; i++ {
			ok = ok && !math.IsNaN(a[i])
		}
		//omp for reduction(+:sq,ab)
		for i := 0; i < n; i++ {
			sq += a[i] * a[i]
			ab += math.Abs(a[i])
		}
		orphanMin(a)
	}
	loTeam := lo
	lo = math.Inf(1)
	orphanMin(a)

	wantM, wantLo, serial := math.Inf(-1), math.Inf(1), 0.0
	for _, v := range a {
		wantM, wantLo, serial = math.Max(wantM, v), math.Min(wantLo, v), serial+v
	}
	fmt.Println(m == wantM, loTeam == wantLo, lo == wantLo, ok, math.Abs(s-serial) <= 1e-6*math.Abs(serial))
	for _, v := range []float64{s, m, sq, ab, lo} {
		fmt.Printf("%x ", math.Float64bits(v))
	}
	fmt.Println()
}
`)
	first := run(3)
	if !strings.HasPrefix(first, "true true true true true\n") {
		t.Fatalf("T=3: wrong results:\n%s", first)
	}
	for i := 1; i < 10; i++ {
		if got := run(3); got != first {
			t.Fatalf("T=3 run %d:\n%s\nfirst run:\n%s", i, got, first)
		}
	}
}

// Exercises the full clause spread on one program: private, firstprivate,
// schedules, single, critical, barrier, atomic, master.
func TestEndToEndDirectiveMix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	got := runPreprocessed(t, `package main

import "fmt"

func main() {
	const n = 10000
	a := make([]float64, n)
	scale := 2.0
	singles := 0
	total := 0
	//omp parallel firstprivate(scale)
	{
		//omp single
		{
			singles++
		}
		//omp for schedule(guided,16) nowait
		for i := 0; i < n; i++ {
			a[i] = scale * float64(i)
		}
		//omp barrier
		//omp for reduction(+:total) schedule(dynamic,64)
		for i := 0; i < n; i++ {
			if a[i] == 2*float64(i) {
				total++
			}
		}
		//omp master
		{
			//omp critical
			{
				total += 0
			}
		}
	}
	fmt.Println(singles, total)
}
`)
	if strings.TrimSpace(got) != "1 10000" {
		t.Fatalf("output = %q, want \"1 10000\"", got)
	}
}

// Collapse(2) over a rectangular nest must touch every cell exactly once.
func TestEndToEndCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	got := runPreprocessed(t, `package main

import "fmt"

func main() {
	const ni, nj = 37, 53
	m := make([][]int, ni)
	for i := range m {
		m[i] = make([]int, nj)
	}
	//omp parallel
	{
		//omp for collapse(2) schedule(dynamic,7)
		for i := 0; i < ni; i++ {
			for j := 0; j < nj; j++ {
				m[i][j]++
			}
		}
	}
	bad := 0
	for i := range m {
		for j := range m[i] {
			if m[i][j] != 1 {
				bad++
			}
		}
	}
	fmt.Println(bad)
}
`)
	if strings.TrimSpace(got) != "0" {
		t.Fatalf("output = %q, want 0", got)
	}
}

// Threadprivate counters must accumulate independently per thread and
// persist across regions (hot team keeps gtids stable).
func TestEndToEndThreadPrivate(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	got := runPreprocessed(t, `package main

import "fmt"

//omp threadprivate(counter)
var counter int

func main() {
	total := 0
	//omp parallel num_threads(4)
	{
		counter++
	}
	//omp parallel num_threads(4)
	{
		counter++
		//omp atomic
		total += counter
	}
	fmt.Println(total)
}
`)
	// Same 4 threads in both regions → every counter reaches 2 → 4*2=8.
	if strings.TrimSpace(got) != "8" {
		t.Fatalf("output = %q, want 8", got)
	}
}

// Lastprivate: the sequentially-last iteration's value survives the loop,
// regardless of schedule.
func TestEndToEndLastPrivate(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	got := runPreprocessed(t, `package main

import "fmt"

func main() {
	last := -1
	//omp parallel
	{
		//omp for lastprivate(last) schedule(dynamic,3)
		for i := 0; i < 1000; i++ {
			last = i * 2
		}
	}
	fmt.Println(last)
}
`)
	if strings.TrimSpace(got) != "1998" {
		t.Fatalf("output = %q, want 1998", got)
	}
}

// Sections distribute blocks; copyprivate broadcasts the single winner's
// value.
func TestEndToEndSectionsAndCopyPrivate(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	got := runPreprocessed(t, `package main

import "fmt"

func main() {
	var a, b, c int
	v := 0
	//omp parallel num_threads(3)
	{
		//omp sections
		{
			a = 1
			//omp section
			b = 2
			//omp section
			c = 3
		}
		//omp single copyprivate(v)
		{
			v = 7
		}
		//omp atomic
		v += 0
	}
	fmt.Println(a+b+c, v)
}
`)
	if strings.TrimSpace(got) != "6 7" {
		t.Fatalf("output = %q, want \"6 7\"", got)
	}
}

// The paper's Listing 6 path end to end: a multiplication reduction, which
// has no native atomic and goes through the CAS loop.
func TestEndToEndMulReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	got := runPreprocessed(t, `package main

import "fmt"

func main() {
	p := int64(1)
	//omp parallel for reduction(*:p) num_threads(8)
	for i := 0; i < 62; i++ {
		p *= 2
	}
	fmt.Println(p == 1<<62)
}
`)
	if strings.TrimSpace(got) != "true" {
		t.Fatalf("output = %q, want true", got)
	}
}

// The tasking pipeline end to end: a source file tagged with //omp task,
// //omp taskwait, //omp single and //omp taskloop round-trips through
// tokenize → parse → encode → gen and the generated Go computes the same
// results as the serial reference. Recursive Fibonacci through orphaned
// task directives is the canonical irregular workload; the taskloop sums an
// arithmetic series whose closed form is the check.
func TestEndToEndTasking(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	got := runPreprocessed(t, `package main

import "fmt"

func fib(n int) int {
	if n < 2 {
		return n
	}
	var x, y int
	//omp task shared(x) final(n < 8)
	{
		x = fib(n - 1)
	}
	y = fib(n - 2)
	//omp taskwait
	return x + y
}

func main() {
	r := 0
	//omp parallel num_threads(4)
	{
		//omp single
		{
			r = fib(15)
		}
	}

	total := 0
	//omp parallel num_threads(4)
	{
		//omp single
		{
			//omp taskloop grainsize(16)
			for i := 0; i < 1000; i++ {
				//omp atomic
				total += i
			}
		}
	}

	grouped := 0
	//omp parallel num_threads(4)
	{
		//omp single
		{
			//omp taskgroup
			{
				for k := 0; k < 10; k++ {
					//omp task firstprivate(k)
					{
						//omp atomic
						grouped += k
					}
				}
			}
		}
	}
	fmt.Println(r, total, grouped)
}
`)
	if strings.TrimSpace(got) != "610 499500 45" {
		t.Fatalf("output = %q, want \"610 499500 45\"", got)
	}
}

// Cancellation end-to-end: cancel and cancellation point pragmas round-trip
// through the preprocessor and behave at runtime — a found-it search stops a
// worksharing loop, a cancelled taskgroup discards unstarted siblings, and a
// cancelled parallel region makes every thread leave before its work.
func TestEndToEndCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	got := runPreprocessed(t, `package main

import (
	"fmt"

	omp "gomp/omp"
)

func main() {
	omp.SetCancellation(true)

	// cancel for: a parallel search stops dispatching chunks once found.
	a := make([]int, 200000)
	a[123456] = 7
	hits := 0
	//omp parallel for schedule(dynamic,64)
	for i := 0; i < len(a); i++ {
		if a[i] == 7 {
			//omp atomic
			hits++
			//omp cancel for
		}
		//omp cancellation point for
	}

	// cancel taskgroup: unstarted sibling tasks are discarded.
	done := 0
	//omp parallel num_threads(4)
	{
		//omp single
		{
			//omp taskgroup
			{
				for k := 0; k < 64; k++ {
					//omp task
					{
						//omp atomic
						done++
					}
					if k == 0 {
						//omp cancel taskgroup
					}
				}
			}
		}
	}

	// cancel parallel: every thread leaves at the cancel directive itself,
	// so none reaches the combine below it.
	left := omp.NewReduction(omp.ReduceSum, int64(0))
	//omp parallel num_threads(4)
	{
		//omp cancel parallel
		left.Combine(1)
	}

	// cancel parallel encountered *inside* a worksharing loop: the loop's
	// implicit barrier is a cancellation point, so no thread runs the code
	// between the loop and the region's end.
	after := omp.NewReduction(omp.ReduceSum, int64(0))
	//omp parallel num_threads(4)
	{
		//omp for
		for i := 0; i < 1000; i++ {
			if i == 0 {
				//omp cancel parallel
			}
		}
		after.Combine(1)
	}

	fmt.Println(hits == 1, done <= 1, left.Value() == 0, after.Value() == 0)
}
`)
	if strings.TrimSpace(got) != "true true true true" {
		t.Fatalf("output = %q, want \"true true true true\"", got)
	}
}

// A cancellation directive directly in a worksharing loop's body continues
// the lowered chunk loop, whose next ForNext sees the cancellation and
// detaches the thread; one inside a critical section returns from that
// closure. A cancellable team runs the search under static, static,1 and
// dynamic,1, twenty rounds each, so the dispatch ring cycles through its
// buffers many times over. The target must be found every time, nothing may
// hang, and the team must still run an ordinary loop afterwards.
func TestEndToEndCancelForClosureFree(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	run := buildPreprocessed(t, `package main

import (
	"fmt"

	omp "gomp/omp"
)

func findStatic(a []int, target int) int {
	found := -1
	//omp parallel
	{
		//omp for schedule(static)
		for i := 0; i < len(a); i++ {
			if a[i] == target {
				//omp critical
				{
					found = i
					//omp cancellation point for
				}
				//omp cancel for
			}
			//omp cancellation point for
		}
	}
	return found
}

func findStatic1(a []int, target int) int {
	found := -1
	//omp parallel
	{
		//omp for schedule(static,1)
		for i := 0; i < len(a); i++ {
			if a[i] == target {
				//omp critical
				{
					found = i
				}
				//omp cancel for
			}
			//omp cancellation point for
		}
	}
	return found
}

func findDynamic1(a []int, target int) int {
	found := -1
	//omp parallel
	{
		//omp for schedule(dynamic,1)
		for i := 0; i < len(a); i++ {
			if a[i] == target {
				//omp critical
				{
					found = i
				}
				//omp cancel for
			}
			//omp cancellation point for
		}
	}
	return found
}

func main() {
	omp.SetCancellation(true)
	a := make([]int, 5000)
	for i := range a {
		a[i] = i
	}
	ok := true
	for round := 0; round < 20; round++ {
		target := (round*797 + 13) % len(a)
		for _, find := range []func([]int, int) int{findStatic, findStatic1, findDynamic1} {
			if got := find(a, target); got != target {
				fmt.Println("round", round, "found", got, "want", target)
				ok = false
			}
		}
	}
	sum := 0
	//omp parallel for reduction(+:sum) schedule(dynamic,7)
	for i := 0; i < len(a); i++ {
		sum += a[i]
	}
	fmt.Println(ok, sum == len(a)*(len(a)-1)/2)
}
`)
	for _, threads := range []int{2, 4} {
		if got := strings.TrimSpace(run(threads)); got != "true true" {
			t.Fatalf("threads=%d: output = %q, want \"true true\"", threads, got)
		}
	}
}

// Task dependences end to end: annotate, preprocess, run. A three-stage
// dependence chain over shared cells must observe each predecessor's value
// (the chain serialises the tasks regardless of which thread runs them),
// and a trailing depend(in) fan checks the reader set against the last
// writer. taskyield inside the generator is a scheduling point only — it
// must not perturb the result.
func TestEndToEndTaskDependChain(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	got := runPreprocessed(t, `package main

import (
	"fmt"

	"gomp/omp"
)

func main() {
	ok := true
	for round := 0; round < 50; round++ {
		var a, b, c int
		sum := 0
		omp.Parallel(func(t *omp.Thread) {
			omp.Single(t, func() {
				//omp task depend(out:a)
				{
					a = 1
				}
				//omp taskyield
				//omp task depend(in:a) depend(out:b) priority(1)
				{
					b = a + 1
				}
				//omp task depend(in:a,b) depend(out:c) mergeable
				{
					c = a + b
				}
				//omp task depend(in:c) firstprivate(round)
				{
					_ = round
					sum = c
				}
				//omp taskwait
			})
		})
		if a != 1 || b != 2 || c != 3 || sum != 3 {
			ok = false
		}
	}
	fmt.Println(ok)
}
`)
	if strings.TrimSpace(got) != "true" {
		t.Fatalf("output = %q, want true", got)
	}
}

// The tile composition contract at runtime: `parallel for collapse(2)`
// stacked above `tile sizes(…)` distributes the generated tile-grid loops,
// and every cell of a deliberately non-divisible iteration space (37 % 8,
// 53 % 16 ≠ 0, so fringe tiles exist on both axes) is visited exactly
// once. A second, descending stepped nest checks the logical-iteration
// normalisation under tiling.
func TestEndToEndTiledCollapseExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	got := runPreprocessed(t, `package main

import "fmt"

func main() {
	const ni, nj = 37, 53
	m := make([]int, ni*nj)
	//omp parallel for collapse(2) num_threads(4)
	//omp tile sizes(8,16)
	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			m[i*nj+j]++
		}
	}
	bad := 0
	for _, v := range m {
		if v != 1 {
			bad++
		}
	}

	const n = 41
	a := make([]int, n)
	//omp parallel for num_threads(3)
	//omp tile sizes(7)
	for i := n - 1; i >= 0; i-- {
		a[i]++
	}
	for _, v := range a {
		if v != 1 {
			bad++
		}
	}
	fmt.Println(bad)
}
`)
	if strings.TrimSpace(got) != "0" {
		t.Fatalf("output = %q, want 0", got)
	}
}

// Serial tile and unroll are pure source transformations: the restructured
// loops must compute bit-identical results, fringe iterations included
// (100 % 7 ≠ 0 exercises the remainder loop).
func TestEndToEndTransformsSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	got := runPreprocessed(t, `package main

import "fmt"

func main() {
	const n = 100
	sum := 0
	//omp unroll partial(7)
	for i := 0; i < n; i++ {
		sum += i * i
	}
	want := 0
	for i := 0; i < n; i++ {
		want += i * i
	}

	full := 0
	//omp unroll full
	for k := 3; k <= 15; k += 4 {
		full += k
	}

	const ni, nj = 10, 9
	m := make([]int, ni*nj)
	//omp tile sizes(4,2)
	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			m[i*nj+j] = i + j
		}
	}
	tiled := 0
	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			tiled += m[i*nj+j]
		}
	}
	wantTiled := 0
	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			wantTiled += i + j
		}
	}
	fmt.Println(sum == want, full == 3+7+11+15, tiled == wantTiled)
}
`)
	if strings.TrimSpace(got) != "true true true" {
		t.Fatalf("output = %q, want \"true true true\"", got)
	}
}

// A worksharing loop inside a parallel region distributes a tiled nest the
// same way the combined construct does, and schedule clauses apply to the
// tile grid.
func TestEndToEndTileInsideRegion(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	got := runPreprocessed(t, `package main

import "fmt"

func main() {
	const ni, nj = 23, 29
	m := make([]int, ni*nj)
	//omp parallel num_threads(4)
	{
		//omp for collapse(2) schedule(dynamic,1)
		//omp tile sizes(10,9)
		for i := 0; i < ni; i++ {
			for j := 0; j < nj; j++ {
				m[i*nj+j]++
			}
		}
	}
	bad := 0
	for _, v := range m {
		if v != 1 {
			bad++
		}
	}
	fmt.Println(bad)
}
`)
	if strings.TrimSpace(got) != "0" {
		t.Fatalf("output = %q, want 0", got)
	}
}
