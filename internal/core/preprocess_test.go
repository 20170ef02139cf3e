package core

import (
	"strings"
	"testing"
)

func pp(t *testing.T, src string) string {
	t.Helper()
	out, err := preprocess([]byte(src), Options{Filename: "test.go"})
	if err != nil {
		t.Fatalf("Transform: %v\nsource:\n%s", err, src)
	}
	return string(out)
}

// wantContains checks substrings against a whitespace-normalised view of
// the output, so expectations are stable under gofmt's reflowing.
func wantContains(t *testing.T, out string, subs ...string) {
	t.Helper()
	norm := strings.Join(strings.Fields(out), " ")
	for _, s := range subs {
		if !strings.Contains(norm, strings.Join(strings.Fields(s), " ")) {
			t.Errorf("output missing %q\n----\n%s", s, out)
		}
	}
}

// wantAbsent checks that none of subs appears in the output.
func wantAbsent(t *testing.T, out string, subs ...string) {
	t.Helper()
	for _, s := range subs {
		if strings.Contains(out, s) {
			t.Errorf("output contains %q\n----\n%s", s, out)
		}
	}
}

func TestPreprocessNoPragmasUnchanged(t *testing.T) {
	src := "package p\n\nfunc f() int { return 1 }\n"
	out := pp(t, src)
	if out != src {
		t.Fatalf("pragma-free source was modified:\n%s", out)
	}
}

func TestPreprocessParallelRegion(t *testing.T) {
	out := pp(t, `package p

func f() {
	x := 0
	//omp parallel num_threads(4)
	{
		x++
	}
	_ = x
}
`)
	wantContains(t, out,
		"omp.Parallel(func(__omp_t *omp.Thread)",
		"omp.NumThreads(4)",
		`omp.Loc("test.go", 5, "parallel")`,
		`import omp "gomp/omp"`,
	)
}

func TestPreprocessPrivateShadows(t *testing.T) {
	out := pp(t, `package p

func f() {
	a, b := 1, 2
	//omp parallel private(a) firstprivate(b)
	{
		a = b
	}
	_, _ = a, b
}
`)
	wantContains(t, out, "a := a", "b := b", "_ = a", "_ = b")
}

func TestPreprocessRegionReduction(t *testing.T) {
	out := pp(t, `package p

func f() float64 {
	sum := 1.5
	//omp parallel reduction(+:sum)
	{
		sum += 2
	}
	return sum
}
`)
	wantContains(t, out,
		"__omp_red_sum := &sum",
		"sum := omp.ReduceIdentity(omp.ReduceSum, &sum)",
		"omp.Reduce(__omp_t, omp.ReduceSum, __omp_red_sum, sum)",
	)
	wantAbsent(t, out, "NewReduction", "Value()")
}

func TestPreprocessLogicalReductionUsesBoolCell(t *testing.T) {
	out := pp(t, `package p

func f() bool {
	ok := true
	//omp parallel reduction(&&:ok)
	{
		ok = ok && true
	}
	return ok
}
`)
	wantContains(t, out,
		"ok := true",
		"omp.ReduceBool(__omp_t, omp.ReduceLogicalAnd, __omp_red_ok, ok)",
	)
}

func TestPreprocessWorksharingLoop(t *testing.T) {
	out := pp(t, `package p

func f(a []float64) {
	//omp parallel
	{
		//omp for schedule(dynamic,8) nowait
		for i := 0; i < len(a); i++ {
			a[i] = 1
		}
	}
}
`)
	wantContains(t, out,
		"__omp_lb0 := 0",
		"__omp_st0 := int64(1)",
		"omp.TripCount(__omp_lb0, len(a), __omp_st0, false)",
		"omp.ForStart(__omp_t, __omp_trip, omp.Schedule(omp.Dynamic, 8)",
		"omp.ForNext(__omp_t)",
		"for __omp_k, i := __omp_clo, omp.LoopVar(__omp_lb0, __omp_clo, __omp_st0);",
		"__omp_k, i = __omp_k+1, omp.LoopVar(i, 1, __omp_st0)",
	)
	// nowait: no barrier after the loop.
	if strings.Contains(out, "omp.Barrier(") {
		t.Errorf("nowait loop emitted a barrier:\n%s", out)
	}
}

func TestPreprocessLoopBarrierWithoutNowait(t *testing.T) {
	out := pp(t, `package p

func f(a []int) {
	//omp parallel
	{
		//omp for
		for i := 0; i < 10; i++ {
			a[i] = i
		}
	}
}
`)
	wantContains(t, out, "omp.Barrier(__omp_t)")
	wantAbsent(t, out, "omp.NoWait()")
}

func TestPreprocessInclusiveAndDescendingLoops(t *testing.T) {
	out := pp(t, `package p

func f(a []int) {
	//omp parallel
	{
		//omp for
		for i := 10; i >= 1; i-- {
			a[i] = i
		}
	}
}
`)
	wantContains(t, out, "omp.TripCount(__omp_lb0, 1, __omp_st0, true)", "int64(-1)")
}

func TestPreprocessLoopStepExpression(t *testing.T) {
	out := pp(t, `package p

func f(a []int, st int) {
	//omp parallel
	{
		//omp for
		for i := 0; i < 100; i += st {
			a[i] = i
		}
	}
}
`)
	wantContains(t, out, "__omp_st0 := int64((st))")
}

func TestPreprocessParallelFor(t *testing.T) {
	out := pp(t, `package p

func f(a []float64) float64 {
	sum := 0.0
	//omp parallel for reduction(+:sum) schedule(static) num_threads(8)
	for i := 0; i < len(a); i++ {
		sum += a[i]
	}
	return sum
}
`)
	wantContains(t, out,
		"omp.Parallel(func(__omp_t *omp.Thread)",
		"omp.NumThreads(8)",
		"omp.ForStart(__omp_t",
		"__omp_red_sum := omp.ReduceIdentity(omp.ReduceSum, &sum)",
		"omp.Reduce(__omp_t, omp.ReduceSum, &sum, __omp_red_sum)",
	)
	wantAbsent(t, out, "omp.Critical")
}

func TestPreprocessLoopReductionRenamesBody(t *testing.T) {
	out := pp(t, `package p

func f(a []float64) float64 {
	sum := 0.0
	//omp parallel for reduction(+:sum)
	for i := 0; i < len(a); i++ {
		sum += a[i]
	}
	return sum
}
`)
	wantContains(t, out, "__omp_red_sum += a[i]")
}

func TestPreprocessMinMaxLoopReduction(t *testing.T) {
	out := pp(t, `package p

func f(a []int) int {
	best := 1 << 30
	//omp parallel for reduction(min:best)
	for i := 0; i < len(a); i++ {
		if a[i] < best {
			best = a[i]
		}
	}
	return best
}
`)
	wantContains(t, out, "omp.Reduce(__omp_t, omp.ReduceMin, &best, __omp_red_best)")
}

func TestPreprocessCollapse(t *testing.T) {
	out := pp(t, `package p

func f(m [][]float64, ni, nj int) {
	//omp parallel
	{
		//omp for collapse(2)
		for i := 0; i < ni; i++ {
			for j := 0; j < nj; j++ {
				m[i][j] = 0
			}
		}
	}
}
`)
	wantContains(t, out,
		"__omp_trip0", "__omp_trip1",
		"__omp_suf0 := __omp_trip1",
		"__omp_trip := __omp_trip0 * __omp_suf0",
		"__omp_r := __omp_k",
		"__omp_r %= __omp_suf0",
	)
}

func TestPreprocessLastPrivate(t *testing.T) {
	out := pp(t, `package p

func f(n int) int {
	last := -1
	//omp parallel
	{
		//omp for lastprivate(last)
		for i := 0; i < n; i++ {
			last = i
		}
	}
	return last
}
`)
	wantContains(t, out,
		"__omp_lp_last := last",
		"__omp_lp_last = i",
		"if __omp_chi == __omp_trip { last = __omp_lp_last }",
	)
}

func TestPreprocessOrphanedLoopUsesCurrent(t *testing.T) {
	out := pp(t, `package p

func f(a []int) {
	//omp for
	for i := 0; i < 10; i++ {
		a[i] = i
	}
}
`)
	wantContains(t, out, "__omp_t := omp.Current()")
}

func TestPreprocessBarrierSingleMasterCritical(t *testing.T) {
	out := pp(t, `package p

import "fmt"

func f() {
	//omp parallel
	{
		//omp single nowait
		{
			fmt.Println("once")
		}
		//omp barrier
		//omp master
		{
			fmt.Println("master")
		}
		//omp critical(io)
		{
			fmt.Println("locked")
		}
	}
}
`)
	wantContains(t, out,
		"omp.Single(__omp_t, func() {",
		"omp.NoWait())",
		"omp.Barrier(__omp_t)",
		"omp.Masked(__omp_t, func() {",
		`omp.Critical("io", func() {`,
	)
}

func TestPreprocessAtomic(t *testing.T) {
	out := pp(t, `package p

func f(x *int) {
	//omp parallel
	{
		//omp atomic
		*x += 1
	}
}
`)
	wantContains(t, out, `omp.AtomicAdd(x, 1)`)
}

func TestPreprocessSections(t *testing.T) {
	out := pp(t, `package p

var a, b, c int

func f() {
	//omp parallel
	{
		//omp sections
		{
			a = 1
			//omp section
			b = 2
			//omp section
			c = 3
		}
	}
}
`)
	wantContains(t, out, "omp.Sections(__omp_t, []func(){")
	if got := strings.Count(out, "func() {"); got < 3 {
		t.Errorf("expected at least 3 section closures, found %d:\n%s", got, out)
	}
}

func TestPreprocessCopyPrivate(t *testing.T) {
	out := pp(t, `package p

func f() int {
	v := 0
	//omp parallel
	{
		//omp single copyprivate(v)
		{
			v = 42
		}
	}
	return v
}
`)
	wantContains(t, out,
		"if __omp_t.Single() {",
		"omp.CopyPrivatePublish(__omp_t, v)",
		"omp.CopyPrivateAssign(__omp_t, &v)",
	)
}

func TestPreprocessThreadPrivate(t *testing.T) {
	out := pp(t, `package p

//omp threadprivate(counter)
var counter int

func bump() {
	counter++
}
`)
	wantContains(t, out,
		"var __omp_tp_counter = omp.NewThreadPrivate[int](nil)",
		"(*__omp_tp_counter.Get(omp.Current()))++",
	)
}

func TestPreprocessThreadPrivateWithInit(t *testing.T) {
	out := pp(t, `package p

//omp threadprivate(scale)
var scale float64 = 2.5

func f() float64 { return scale }
`)
	wantContains(t, out,
		"omp.NewThreadPrivate[float64](func() *float64 { var __omp_v float64 = 2.5; return &__omp_v })",
		"return (*__omp_tp_scale.Get(omp.Current()))",
	)
}

func TestPreprocessNestedParallel(t *testing.T) {
	out := pp(t, `package p

func f() {
	//omp parallel
	{
		//omp parallel num_threads(2)
		{
			_ = 1
		}
	}
}
`)
	if got := strings.Count(out, "omp.Parallel(func("); got != 2 {
		t.Fatalf("nested regions produced %d Parallel calls, want 2:\n%s", got, out)
	}
}

func TestPreprocessDefaultNone(t *testing.T) {
	src := `package p

func f() {
	x := 0
	//omp parallel default(none)
	{
		x = 1
	}
	_ = x
}
`
	if _, err := preprocess([]byte(src), Options{}); err == nil {
		t.Fatal("default(none) with unlisted assigned variable did not error")
	}
	ok := strings.Replace(src, "default(none)", "default(none) shared(x)", 1)
	if _, err := preprocess([]byte(ok), Options{}); err != nil {
		t.Fatalf("default(none) with listed variable errored: %v", err)
	}
}

func TestPreprocessErrors(t *testing.T) {
	cases := []struct{ name, src, wantErr string }{
		{"parallel-no-block", `package p
func f() {
	//omp parallel
	x := 1
	_ = x
}`, "must immediately precede"},
		{"for-no-loop", `package p
func f() {
	//omp parallel
	{
		//omp for
		x := 1
		_ = x
	}
}`, "for statement"},
		{"return-in-region", `package p
func f() int {
	//omp parallel
	{
		return 3
	}
}`, "return inside"},
		{"range-loop", `package p
func f(a []int) {
	//omp parallel
	{
		//omp for
		for range a {
		}
	}
}`, "for statement"},
		{"bad-comparison", `package p
func f(a []int) {
	//omp parallel
	{
		//omp for
		for i := 0; i != 10; i++ {
			a[i] = 0
		}
	}
}`, "comparison"},
		{"wrong-direction", `package p
func f(a []int) {
	//omp parallel
	{
		//omp for
		for i := 0; i > 10; i++ {
			a[i] = 0
		}
	}
}`, "descending comparison"},
		{"shadowed-reduction", `package p
func f(n int) int {
	s := 0
	//omp parallel for reduction(+:s)
	for i := 0; i < n; i++ {
		s := i
		_ = s
	}
	return s
}`, "redeclared"},
		{"orphan-section", `package p
func f() {
	//omp section
	{
	}
}`, "section directive outside"},
		{"collapse-imperfect", `package p
func f(n int) {
	//omp parallel
	{
		//omp for collapse(2)
		for i := 0; i < n; i++ {
			_ = i
			for j := 0; j < n; j++ {
				_ = j
			}
		}
	}
}`, "not perfect"},
		{"collapse-triangular", `package p
func f(n int) {
	//omp parallel
	{
		//omp for collapse(2)
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				_ = j
			}
		}
	}
}`, "non-rectangular"},
		{"bad-pragma", `package p
func f() {
	//omp paralel
	{
	}
}`, "unknown directive"},
		{"threadprivate-no-decl", `package p
//omp threadprivate(zz)
func f() {}`, "no package-level var"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := preprocess([]byte(c.src), Options{Filename: c.name + ".go"})
			if err == nil {
				t.Fatalf("no error, want %q", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

func TestPreprocessKeepsExistingOmpImport(t *testing.T) {
	out := pp(t, `package p

import "gomp/omp"

func f() {
	omp.SetNumThreads(2)
	//omp parallel
	{
		_ = 1
	}
}
`)
	if got := strings.Count(out, `"gomp/omp"`); got != 1 {
		t.Fatalf("runtime import appears %d times, want 1:\n%s", got, out)
	}
}

func TestPreprocessIdempotentOnOutput(t *testing.T) {
	src := `package p

func f(a []float64) float64 {
	s := 0.0
	//omp parallel for reduction(+:s)
	for i := 0; i < len(a); i++ {
		s += a[i]
	}
	return s
}
`
	once := pp(t, src)
	twice := pp(t, once)
	if once != twice {
		t.Fatalf("preprocessing its own output changed it:\n--- once ---\n%s\n--- twice ---\n%s", once, twice)
	}
}

func TestPreprocessCancelParallel(t *testing.T) {
	out := pp(t, `package p

func f(work []int) {
	//omp parallel
	{
		//omp cancellation point parallel
		for i := range work {
			if work[i] < 0 {
				//omp cancel parallel
			}
			work[i]++
		}
	}
}
`)
	wantContains(t, out,
		"omp.Parallel(func(__omp_t *omp.Thread)",
		"if omp.CancellationPoint(__omp_t, omp.CancelParallel) { return }",
		"if omp.Cancel(__omp_t, omp.CancelParallel) { return }",
		`import omp "gomp/omp"`,
	)
}

func TestPreprocessCancelForWithIf(t *testing.T) {
	out := pp(t, `package p

func find(a []int, target int) int {
	found := -1
	//omp parallel for
	for i := 0; i < len(a); i++ {
		if a[i] == target {
			found = i
			//omp cancel for if(found >= 0)
		}
	}
	return found
}
`)
	// The false branch still consults CancellationPoint: a cancel region
	// is a cancellation point regardless of its if clause.
	wantContains(t, out,
		"if ((found >= 0) && omp.Cancel(__omp_t, omp.CancelFor)) || omp.CancellationPoint(__omp_t, omp.CancelFor) { continue __omp_for5 }",
	)
}

func TestPreprocessCancelTaskgroup(t *testing.T) {
	out := pp(t, `package p

func f(t *omp.Thread) {
	//omp taskgroup
	{
		//omp task
		{
			//omp cancel taskgroup
		}
	}
}
`)
	wantContains(t, out,
		"omp.Taskgroup(t, func() {",
		"if omp.Cancel(t, omp.CancelTaskgroup) { return }",
	)
}

// A cancel with no lexically enclosing construct has no team to cancel:
// OpenMP's "innermost enclosing region" does not exist, and the
// preprocessor rejects the pragma instead of silently dropping it.
func TestPreprocessCancelOutsideRegionRejected(t *testing.T) {
	for _, src := range []string{
		"package p\n\nfunc f() {\n\t//omp cancel parallel\n}\n",
		"package p\n\nfunc f() {\n\t//omp cancellation point for\n}\n",
	} {
		if _, err := preprocess([]byte(src), Options{Filename: "test.go"}); err == nil {
			t.Errorf("cancel outside any region preprocessed without error:\n%s", src)
		} else if !strings.Contains(err.Error(), "outside a parallel region") {
			t.Errorf("unexpected error: %v", err)
		}
	}
}

// When a file uses cancellation, every barrier site doubles as a lowered
// cancellation point: the guard after the loop's implicit barrier is what
// carries a `cancel parallel` out of the loop to the region's end.
func TestPreprocessBarrierGuardsWhenCancelling(t *testing.T) {
	out := pp(t, `package p

func f(n int) {
	//omp parallel
	{
		//omp for
		for i := 0; i < n; i++ {
			if i == 0 {
				//omp cancel parallel
			}
		}
	}
}
`)
	wantContains(t, out,
		"omp.Barrier(__omp_t)",
		"if omp.CancellationPoint(__omp_t, omp.CancelParallel) { return }",
	)
}

// Files without cancel pragmas must not pay for guards: the barrier sites
// stay byte-identical to the pre-cancellation lowering.
func TestPreprocessNoGuardsWithoutCancel(t *testing.T) {
	out := pp(t, `package p

func f(n int) {
	//omp parallel
	{
		//omp for
		for i := 0; i < n; i++ {
			_ = i
		}
		//omp barrier
	}
}
`)
	if strings.Contains(out, "CancellationPoint") {
		t.Fatalf("guards emitted without any cancel pragma:\n%s", out)
	}
}

// An orphaned worksharing construct in a cancel-using file must not receive
// a barrier guard: the guard's bare return would land in the user's
// function, breaking compilation when it has results.
func TestPreprocessNoGuardOnOrphanedConstructs(t *testing.T) {
	out := pp(t, `package p

func region(t *omp.Thread) {
	//omp cancellation point parallel
	_ = 1
}

func sum(a []float64) float64 {
	s := 0.0
	//omp for
	for i := 0; i < len(a); i++ {
		s += a[i]
	}
	//omp barrier
	return s
}
`)
	// Exactly one CancellationPoint: the explicit pragma; neither the
	// orphaned loop's barrier nor the orphaned explicit barrier grew one.
	if got := strings.Count(out, "CancellationPoint"); got != 1 {
		t.Fatalf("CancellationPoint appears %d times, want 1 (no orphan guards):\n%s", got, out)
	}
}

func TestPreprocessScheduleModifier(t *testing.T) {
	out := pp(t, `package p

func f(a []float64) {
	//omp parallel
	{
		//omp for schedule(nonmonotonic:dynamic,8) nowait
		for i := 0; i < len(a); i++ {
			a[i] = 1
		}
		//omp for schedule(monotonic:guided) nowait
		for i := 0; i < len(a); i++ {
			a[i] += 1
		}
	}
}
`)
	wantContains(t, out,
		"omp.Schedule(omp.Dynamic, 8, omp.Nonmonotonic)",
		"omp.Schedule(omp.Guided, 0, omp.Monotonic)",
	)
}

func TestPreprocessOrderedLoop(t *testing.T) {
	out := pp(t, `package p

import "fmt"

func f(n int) {
	//omp parallel for ordered schedule(dynamic,2)
	for i := 0; i < n; i++ {
		v := i * i
		//omp ordered
		{
			fmt.Println(v)
		}
	}
}
`)
	wantContains(t, out,
		"omp.OrderedClause()",
		"omp.Schedule(omp.Dynamic, 2)",
		"omp.Ordered(__omp_t, func() {",
	)
}

func TestPreprocessOrderedWithoutClauseRejected(t *testing.T) {
	_, err := preprocess([]byte(`package p

func f(n int) {
	//omp parallel for schedule(dynamic)
	for i := 0; i < n; i++ {
		//omp ordered
		{
			_ = i
		}
	}
}
`), Options{Filename: "x.go"})
	if err == nil || !strings.Contains(err.Error(), "lacks the ordered clause") {
		t.Fatalf("ordered without clause: err = %v, want binding diagnostic", err)
	}
}

func TestPreprocessOrderedBehindSiblingInnerLoopStillRejected(t *testing.T) {
	// A nested ordered loop that merely precedes the ordered block (a
	// sibling, not an ancestor) must not satisfy the binding check: the
	// block binds to the clause-less outer loop.
	_, err := preprocess([]byte(`package p

func f(n int) {
	//omp for schedule(dynamic)
	for i := 0; i < n; i++ {
		//omp parallel for ordered schedule(dynamic)
		for j := 0; j < n; j++ {
			//omp ordered
			{
				_ = j
			}
		}
		//omp ordered
		{
			_ = i
		}
	}
}
`), Options{Filename: "x.go"})
	if err == nil || !strings.Contains(err.Error(), "lacks the ordered clause") {
		t.Fatalf("sibling-shadowed ordered: err = %v, want binding diagnostic", err)
	}
}

func TestPreprocessOrderedInsideNestedOrderedLoopAccepted(t *testing.T) {
	// The same nesting with the ordered block inside the inner ordered
	// loop is conforming and must preprocess.
	out := pp(t, `package p

func f(n int) {
	//omp for schedule(dynamic)
	for i := 0; i < n; i++ {
		//omp parallel for ordered schedule(dynamic)
		for j := 0; j < n; j++ {
			//omp ordered
			{
				_ = j
			}
		}
	}
}
`)
	wantContains(t, out, "omp.Ordered(")
}

func TestPreprocessTaskDepend(t *testing.T) {
	out := pp(t, `package p

import "gomp/omp"

func f() {
	var a, b, c int
	omp.Parallel(func(t *omp.Thread) {
		omp.Single(t, func() {
			//omp task depend(out:a)
			{
				a = 1
			}
			//omp task depend(in:a) depend(out:b) priority(2)
			{
				b = a + 1
			}
			//omp task depend(in:a,b) depend(inout:c) mergeable
			{
				c += a + b
			}
			//omp taskwait
		})
	})
	_ = c
}
`)
	wantContains(t, out,
		`omp.DependOut(&a)`,
		`omp.DependIn(&a)`,
		`omp.DependOut(&b)`,
		`omp.Priority(2)`,
		`omp.DependIn(&b)`,
		`omp.DependInOut(&c)`,
		`omp.Mergeable()`,
		`omp.Taskwait(t)`,
	)
}

func TestPreprocessTaskyield(t *testing.T) {
	out := pp(t, `package p

import "gomp/omp"

func f() {
	omp.Parallel(func(t *omp.Thread) {
		//omp taskyield
		_ = t
	})
}
`)
	wantContains(t, out, "omp.Taskyield(t)")
	// Orphaned form binds through the registry.
	out = pp(t, `package p

func g() {
	//omp taskyield
}
`)
	wantContains(t, out, "omp.Taskyield(omp.Current())")
}

func TestPreprocessTaskloopPriority(t *testing.T) {
	out := pp(t, `package p

func f(n int) {
	//omp taskloop grainsize(16) priority(n) mergeable
	for i := 0; i < 1000; i++ {
		_ = i
	}
}
`)
	wantContains(t, out, "omp.Grainsize(16)", "omp.Priority(n)", "omp.Mergeable()")
}
