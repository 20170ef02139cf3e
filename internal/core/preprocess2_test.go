package core

import (
	"strings"
	"testing"
)

// Further end-to-end preprocessor programs, run through `go run` like the
// integration_test.go suite.

func TestEndToEndIfClauseSerialises(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	got := runPreprocessed(t, `package main

import "fmt"

func main() {
	small := 10
	teamA, teamB := 0, 0
	//omp parallel num_threads(4) if(small > 100)
	{
		//omp critical
		{
			teamA++
		}
	}
	//omp parallel num_threads(4) if(small > 1)
	{
		//omp critical
		{
			teamB++
		}
	}
	fmt.Println(teamA, teamB)
}
`)
	if strings.TrimSpace(got) != "1 4" {
		t.Fatalf("output = %q, want \"1 4\" (if(false) must serialise)", got)
	}
}

func TestEndToEndDescendingAndSteppedLoops(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	got := runPreprocessed(t, `package main

import "fmt"

func main() {
	const n = 1000
	a := make([]int, n)
	//omp parallel
	{
		//omp for schedule(dynamic,7)
		for i := n - 1; i >= 0; i-- {
			a[i] = i
		}
	}
	sumDesc := 0
	for _, v := range a {
		sumDesc += v
	}
	// Stride-3 inclusive loop: i = 0,3,...,999.
	marks := 0
	//omp parallel for reduction(+:marks)
	for i := 0; i <= 999; i += 3 {
		marks++
	}
	fmt.Println(sumDesc == n*(n-1)/2, marks)
}
`)
	if strings.TrimSpace(got) != "true 334" {
		t.Fatalf("output = %q, want \"true 334\"", got)
	}
}

func TestEndToEndNamedCriticalAndKeywordVars(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	// Variables named after OpenMP keywords must survive the pipeline —
	// the compatibility property that drove keyword-as-identifier
	// tokenisation in Section III-A.
	got := runPreprocessed(t, `package main

import "fmt"

func main() {
	static := 0
	parallel := 0
	//omp parallel num_threads(4) private(parallel)
	{
		parallel = 1
		//omp critical(static_updates)
		{
			static += parallel
		}
	}
	fmt.Println(static)
}
`)
	if strings.TrimSpace(got) != "4" {
		t.Fatalf("output = %q, want 4", got)
	}
}

func TestEndToEndOrphanedWorksharing(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	// A worksharing loop with no enclosing region binds to a team of one
	// and runs everything, per the OpenMP orphaning rules.
	got := runPreprocessed(t, `package main

import "fmt"

func main() {
	sum := 0
	//omp for reduction(+:sum)
	for i := 0; i < 100; i++ {
		sum += i
	}
	fmt.Println(sum)
}
`)
	if strings.TrimSpace(got) != "4950" {
		t.Fatalf("output = %q, want 4950", got)
	}
}

func TestEndToEndCollapseThree(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	got := runPreprocessed(t, `package main

import "fmt"

func main() {
	const d = 11
	var grid [d][d][d]int
	//omp parallel
	{
		//omp for collapse(3) schedule(dynamic,5)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				for k := 0; k < d; k++ {
					grid[i][j][k] = i*d*d + j*d + k
				}
			}
		}
	}
	ok := true
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			for k := 0; k < d; k++ {
				if grid[i][j][k] != i*d*d+j*d+k {
					ok = false
				}
			}
		}
	}
	fmt.Println(ok)
}
`)
	if strings.TrimSpace(got) != "true" {
		t.Fatalf("output = %q, want true", got)
	}
}

func TestEndToEndRuntimeScheduleEnv(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	// schedule(runtime) resolves OMP_SCHEDULE (set by the test harness's
	// environment in runPreprocessed — OMP_NUM_THREADS=4 is set there;
	// the ICV default static also works). The check is coverage, not a
	// specific schedule: the loop must still cover the space.
	got := runPreprocessed(t, `package main

import "fmt"

func main() {
	n := 0
	//omp parallel for reduction(+:n) schedule(runtime)
	for i := 0; i < 12345; i++ {
		n++
	}
	fmt.Println(n)
}
`)
	if strings.TrimSpace(got) != "12345" {
		t.Fatalf("output = %q, want 12345", got)
	}
}

// Unit-level: transformations preserve surrounding code byte-for-byte.
func TestPreprocessPreservesSurroundings(t *testing.T) {
	src := `package p

// A doc comment that must survive.
const answer = 42

func untouched() int { return answer }

func f(a []int) {
	//omp parallel for
	for i := 0; i < len(a); i++ {
		a[i] = i
	}
}
`
	out := pp(t, src)
	for _, want := range []string{
		"// A doc comment that must survive.",
		"const answer = 42",
		"func untouched() int { return answer }",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("surrounding code lost %q:\n%s", want, out)
		}
	}
}

func TestPreprocessMultipleRegionsIndependentScopes(t *testing.T) {
	// Two regions with reductions on the same variable name must not
	// collide: each replacement is wrapped in its own block scope.
	out := pp(t, `package p

func f() int {
	s := 0
	//omp parallel reduction(+:s)
	{
		s++
	}
	//omp parallel reduction(+:s)
	{
		s += 2
	}
	return s
}
`)
	if got := strings.Count(out, "__omp_red_s := &s"); got != 2 {
		t.Fatalf("expected 2 scoped reduction pointers, found %d:\n%s", got, out)
	}
}

func TestPreprocessAtomicIncDec(t *testing.T) {
	out := pp(t, `package p

func f(x *int) {
	//omp parallel
	{
		//omp atomic
		*x++
	}
}
`)
	wantContains(t, out, `omp.AtomicAdd(x, 1)`)
}

func TestPreprocessSentinelVariants(t *testing.T) {
	for _, sentinel := range []string{"//omp", "//$omp", "//#pragma omp"} {
		src := "package p\n\nfunc f(a []int) {\n\t" + sentinel + " parallel for\n\tfor i := 0; i < len(a); i++ {\n\t\ta[i] = i\n\t}\n}\n"
		out := pp(t, src)
		if !strings.Contains(out, "omp.Parallel(") {
			t.Errorf("sentinel %q not recognised", sentinel)
		}
	}
}

func TestPreprocessErrorOnAtomicNonUpdate(t *testing.T) {
	src := `package p

func g() {}

func f() {
	//omp parallel
	{
		//omp atomic
		g()
	}
}
`
	if _, err := preprocess([]byte(src), Options{}); err == nil {
		t.Fatal("atomic over a call statement accepted")
	}
}
