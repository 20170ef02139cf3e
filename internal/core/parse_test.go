package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

func mustParse(t *testing.T, text string) *Directive {
	t.Helper()
	d, err := ParseDirective(text)
	if err != nil {
		t.Fatalf("ParseDirective(%q): %v", text, err)
	}
	return d
}

func TestParseDirectiveKinds(t *testing.T) {
	cases := map[string]DirKind{
		"parallel":         DirParallel,
		"for":              DirFor,
		"do":               DirFor,
		"parallel for":     DirParallelFor,
		"sections":         DirSections,
		"section":          DirSection,
		"single":           DirSingle,
		"master":           DirMaster,
		"masked":           DirMaster,
		"critical":         DirCritical,
		"barrier":          DirBarrier,
		"atomic":           DirAtomic,
		"threadprivate(x)": DirThreadPrivate,
		"task":             DirTask,
		"taskwait":         DirTaskwait,
		"taskgroup":        DirTaskgroup,
		"taskloop":         DirTaskloop,
	}
	for text, want := range cases {
		if d := mustParse(t, text); d.Kind != want {
			t.Errorf("ParseDirective(%q).Kind = %v, want %v", text, d.Kind, want)
		}
	}
}

func TestParseListClauses(t *testing.T) {
	d := mustParse(t, "parallel private(a,b) firstprivate(c) shared(d,e,f)")
	if !reflect.DeepEqual(slices.Collect(d.Clauses.Names(VarPrivate)), []string{"a", "b"}) {
		t.Errorf("Private = %v", slices.Collect(d.Clauses.Names(VarPrivate)))
	}
	if !reflect.DeepEqual(slices.Collect(d.Clauses.Names(VarFirstPrivate)), []string{"c"}) {
		t.Errorf("FirstPrivate = %v", slices.Collect(d.Clauses.Names(VarFirstPrivate)))
	}
	if !reflect.DeepEqual(slices.Collect(d.Clauses.Names(VarShared)), []string{"d", "e", "f"}) {
		t.Errorf("Shared = %v", slices.Collect(d.Clauses.Names(VarShared)))
	}
}

func TestParseRepeatedListClausesAccumulate(t *testing.T) {
	d := mustParse(t, "parallel private(a) private(b)")
	if !reflect.DeepEqual(slices.Collect(d.Clauses.Names(VarPrivate)), []string{"a", "b"}) {
		t.Errorf("Private = %v, want accumulated [a b]", slices.Collect(d.Clauses.Names(VarPrivate)))
	}
}

// Keywords must be usable as variable names inside clause lists — the
// compatibility constraint that drove the paper's keyword-as-identifier
// tokenisation.
func TestParseKeywordAsVariableName(t *testing.T) {
	d := mustParse(t, "parallel private(static, parallel, shared)")
	want := []string{"static", "parallel", "shared"}
	if !reflect.DeepEqual(slices.Collect(d.Clauses.Names(VarPrivate)), want) {
		t.Errorf("Private = %v, want %v", slices.Collect(d.Clauses.Names(VarPrivate)), want)
	}
}

func TestParseReductionOperators(t *testing.T) {
	ops := map[string]ReduceOp{
		"+": RedSum, "-": RedSum, "*": RedProd,
		"min": RedMin, "max": RedMax,
		"&": RedBitAnd, "|": RedBitOr, "^": RedBitXor,
		"&&": RedLogicalAnd, "||": RedLogicalOr,
	}
	for opText, want := range ops {
		d := mustParse(t, "parallel reduction("+opText+":x)")
		if len(d.Clauses.Reductions) != 1 || d.Clauses.Reductions[0].Op != want {
			t.Errorf("reduction(%s:x) parsed as %+v, want op %v", opText, d.Clauses.Reductions, want)
		}
	}
}

func TestParseReductionMultipleVars(t *testing.T) {
	d := mustParse(t, "parallel for reduction(+:sx,sy)")
	r := d.Clauses.Reductions
	if len(r) != 1 || !reflect.DeepEqual(r[0].Vars, []string{"sx", "sy"}) {
		t.Errorf("Reductions = %+v", r)
	}
}

func TestParseSchedules(t *testing.T) {
	cases := map[string]struct {
		kind  SchedEnum
		chunk int64
	}{
		"for schedule(static)":      {SchedStatic, 0},
		"for schedule(static,1)":    {SchedStatic, 1},
		"for schedule(dynamic, 64)": {SchedDynamic, 64},
		"for schedule(guided,8)":    {SchedGuided, 8},
		"for schedule(runtime)":     {SchedRuntime, 0},
		"for schedule(auto)":        {SchedAuto, 0},
	}
	for text, want := range cases {
		d := mustParse(t, text)
		if d.Clauses.Sched != want.kind || d.Clauses.Chunk != want.chunk {
			t.Errorf("%q → %v,%d want %v,%d", text, d.Clauses.Sched, d.Clauses.Chunk, want.kind, want.chunk)
		}
	}
}

// The schedule kinds are OpenMP's and no others: every keyword the lexer
// knows is tried as one, and exactly these five parse.
func TestParseScheduleKindsAreOpenMPs(t *testing.T) {
	var got []string
	for kw := range keywordTags {
		if _, err := ParseDirective("for schedule(" + kw + ")"); err == nil {
			got = append(got, kw)
		}
	}
	slices.Sort(got)
	if want := []string{"auto", "dynamic", "guided", "runtime", "static"}; !slices.Equal(got, want) {
		t.Errorf("schedule kinds = %v, want %v", got, want)
	}
	for s := SchedStatic; s <= SchedAuto; s++ {
		if !slices.Contains(got, s.String()) {
			t.Errorf("SchedEnum %d spells %q, not a schedule kind", s, s)
		}
	}
	if s := SchedAuto + 1; s.String() != "none" {
		t.Errorf("SchedEnum %d spells %q past the last kind", s, s)
	}
}

func TestParseMiscClauses(t *testing.T) {
	d := mustParse(t, "parallel for default(none) collapse(2) num_threads(2*n) if(n > 100) private(i)")
	c := d.Clauses
	if c.Default != DefaultNone {
		t.Errorf("Default = %v", c.Default)
	}
	if c.Collapse != 2 {
		t.Errorf("Collapse = %d", c.Collapse)
	}
	if c.NumThreads != "2*n" {
		t.Errorf("NumThreads = %q", c.NumThreads)
	}
	if c.If != "n > 100" {
		t.Errorf("If = %q", c.If)
	}
	d2 := mustParse(t, "for nowait")
	if !d2.Clauses.NoWait {
		t.Error("NoWait = false")
	}
}

func TestParseIfNestedParens(t *testing.T) {
	d := mustParse(t, "parallel if(f(x, g(y)) > (n/2))")
	if d.Clauses.If != "f(x, g(y)) > (n/2)" {
		t.Errorf("If = %q", d.Clauses.If)
	}
}

func TestParseCriticalName(t *testing.T) {
	if d := mustParse(t, "critical(updates)"); d.Clauses.rare().Name != "updates" {
		t.Errorf("Name = %q", d.Clauses.rare().Name)
	}
	if d := mustParse(t, "critical"); d.Clauses.rare().Name != "" {
		t.Errorf("unnamed critical Name = %q", d.Clauses.rare().Name)
	}
}

func TestParseThreadPrivate(t *testing.T) {
	d := mustParse(t, "threadprivate(x, y)")
	if !reflect.DeepEqual(d.Clauses.rare().ThreadPrivateVars, []string{"x", "y"}) {
		t.Errorf("ThreadPrivateVars = %v", d.Clauses.rare().ThreadPrivateVars)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                           // no directive
		"banana",                                     // unknown directive
		"parallel banana(x)",                         // unknown clause
		"parallel private(",                          // unterminated list
		"parallel private()",                         // empty list
		"parallel private(1)",                        // not an identifier
		"for schedule(bogus)",                        // bad schedule kind
		"for schedule(static,0)",                     // chunk must be positive
		"for schedule(static,-4)",                    // negative chunk
		"for schedule(static,1x)",                    // trailing junk in chunk
		"parallel reduction(?:x)",                    // bad operator
		"parallel reduction(+x)",                     // missing colon
		"parallel default(dynamic)",                  // bad default
		"for collapse(0)",                            // collapse must be positive
		"parallel if()",                              // empty expression
		"parallel num_threads((n)",                   // unbalanced parens
		"flush",                                      // unsupported directive
		"parallel nowait",                            // clause not allowed on directive
		"barrier private(x)",                         // clause on bare directive
		"for num_threads(4)",                         // parallel-only clause on for
		"parallel schedule(static)",                  // loop-only clause on parallel
		"for schedule(nonmonotonic:static)",          // nonmonotonic needs dynamic-family
		"for schedule(nonmonotonic:dynamic) ordered", // modifier conflicts with ordered
		"for schedule(monotonic dynamic)",            // missing ':' after modifier
		"for schedule(monotonic:runtime)",            // modifier belongs in OMP_SCHEDULE
		"parallel ordered",                           // loop-only clause on parallel
		"ordered nowait",                             // ordered block takes no clauses
		"for collapse(16)",                           // exceeds MaxCollapse
		"parallel private(x) shared(x)",              // duplicate data-sharing
		"parallel reduction(+:x) private(x)",         // reduction vs private
		"sections reduction(+:x)",                    // not lowered on sections
		"sections lastprivate(x)",                    // not lowered on sections
		"threadprivate",                              // missing list
		"taskwait if(x)",                             // taskwait takes no clauses
		"taskgroup private(x)",                       // taskgroup takes no clauses
		"task schedule(static)",                      // loop-only clause on task
		"task grainsize(4)",                          // taskloop-only clause on task
		"task nowait",                                // no nowait on task
		"taskloop grainsize(4) num_tasks(2)",         // mutually exclusive
		"taskloop grainsize(0)",                      // must be positive
		"taskloop num_tasks(-1)",                     // must be positive
		"taskloop nowait",                            // taskloop has nogroup, not nowait
		"for untied",                                 // task-only clause on for
		"parallel final(x)",                          // task-only clause on parallel
		"cancel",                                     // cancel requires a construct kind
		"cancel single",                              // not a cancellable construct
		"cancel sections",                            // cancellable in OpenMP, not lowered here
		"cancel banana",                              // unknown construct kind
		"cancel parallel nowait",                     // cancel takes only the if clause
		"cancel for schedule(static)",                // loop clause on cancel
		"cancel taskgroup private(x)",                // data clause on cancel
		"cancellation",                               // bare cancellation: missing point
		"cancellation parallel",                      // missing point before the kind
		"cancellation point",                         // missing construct kind
		"cancellation point critical",                // not a cancellable construct
		"cancellation point for if(x)",               // cancellation point takes no clauses
	}
	for _, text := range cases {
		if _, err := ParseDirective(text); err == nil {
			t.Errorf("ParseDirective(%q) succeeded, want error", text)
		}
	}
}

// Each clause bound of validate.go's limits block: the largest legal value
// parses and the next one is rejected.
func TestParseAtClauseLimits(t *testing.T) {
	for _, c := range []struct {
		clause     string
		ok, reject string
	}{
		{"schedule chunk", "for schedule(static,536870911)", "for schedule(static,536870912)"},
		{"collapse", "for collapse(15)", "for collapse(16)"},
		{"grainsize", "taskloop grainsize(1073741823)", "taskloop grainsize(1073741824)"},
		{"num_tasks", "taskloop num_tasks(1073741823)", "taskloop num_tasks(1073741824)"},
		{"tile sizes", "tile sizes(4, 536870911)", "tile sizes(4, 536870912)"},
	} {
		if _, err := ParseDirective(c.ok); err != nil {
			t.Errorf("%s: %q rejected at limit - 1: %v", c.clause, c.ok, err)
		}
		if _, err := ParseDirective(c.reject); err == nil {
			t.Errorf("%s: %q accepted at the limit", c.clause, c.reject)
		}
	}
}

func TestParseFirstLastPrivateCombination(t *testing.T) {
	// OpenMP allows a variable in both firstprivate and lastprivate.
	if _, err := ParseDirective("for firstprivate(x) lastprivate(x)"); err != nil {
		t.Errorf("firstprivate+lastprivate combination rejected: %v", err)
	}
	if _, err := ParseDirective("for private(x) lastprivate(x)"); err == nil {
		t.Error("private+lastprivate accepted")
	}
}

func TestDistributeParallelFor(t *testing.T) {
	d := mustParse(t, "parallel for private(i) lastprivate(l) firstprivate(c) shared(s) reduction(+:sum) schedule(dynamic,4) num_threads(8) if(ok) default(none) collapse(2)")
	par, loop := DistributeParallelFor(d)
	if par.Kind != DirParallel || loop.Kind != DirFor {
		t.Fatalf("kinds = %v/%v", par.Kind, loop.Kind)
	}
	if !reflect.DeepEqual(slices.Collect(par.Clauses.Names(VarPrivate)), []string{"i"}) ||
		par.Clauses.NumThreads != "8" || par.Clauses.If != "ok" ||
		par.Clauses.Default != DefaultNone {
		t.Errorf("parallel half = %+v", par.Clauses)
	}
	if len(par.Clauses.Reductions) != 0 || par.Clauses.Count(VarLastPrivate) != 0 {
		t.Error("reduction or lastprivate leaked to the parallel half")
	}
	if !reflect.DeepEqual(loop.Clauses.Vars, []ListedVar{{"l", VarLastPrivate}}) {
		t.Errorf("loop half's variables = %v, want only lastprivate l", loop.Clauses.Vars)
	}
	if loop.Clauses.Sched != SchedDynamic || loop.Clauses.Chunk != 4 ||
		loop.Clauses.Collapse != 2 || len(loop.Clauses.Reductions) != 1 {
		t.Errorf("loop half = %+v", loop.Clauses)
	}
	if !loop.Clauses.NoWait {
		t.Error("fused loop should elide its redundant barrier (nowait)")
	}
	// Both halves must validate independently.
	if err := Validate(&par); err != nil {
		t.Errorf("parallel half invalid: %v", err)
	}
	if err := Validate(&loop); err != nil {
		t.Errorf("loop half invalid: %v", err)
	}
}

// The analysis holds a directive per pragma and two more per `parallel
// for`, so the directive stays small: the clauses no loop directive
// carries (tasking, tile and unroll, threadprivate, copyprivate, a critical
// section's name, the cancellation kind) live in Clauses.Rare, allocated
// only for a pragma that writes one, and the four data-sharing lists are
// one tagged list.
func TestDirectiveFootprint(t *testing.T) {
	const ceiling = 128 // one size class
	if size := unsafe.Sizeof(Directive{}); size > ceiling {
		t.Errorf("Directive is %d bytes, over its %d-byte ceiling: put clauses that loop directives never carry in RareClauses, not in Clauses", size, ceiling)
	}
	for _, text := range []string{"parallel for reduction(+:s) schedule(dynamic,4) collapse(2) private(a) lastprivate(b)", "for nowait", "parallel num_threads(4)", "critical", "barrier"} {
		if d := mustParse(t, text); d.Clauses.Rare != nil {
			t.Errorf("%q allocated rare clauses: %+v", text, *d.Clauses.Rare)
		}
	}
}

func TestDirectiveString(t *testing.T) {
	d := mustParse(t, "parallel for private(a) reduction(*:p) schedule(guided,4) num_threads(n)")
	s := d.String()
	for _, want := range []string{"parallel for", "private(a)", "reduction(*:p)", "schedule(guided,4)", "num_threads(n)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestParseTaskClauses(t *testing.T) {
	d := mustParse(t, "task private(a) firstprivate(b) shared(c) if(depth < limit) final(n < 16) untied")
	c, r := &d.Clauses, d.Clauses.rare()
	if c.If != "depth < limit" || r.Final != "n < 16" || !r.Untied {
		t.Errorf("task clauses = %+v, %+v", c, r)
	}
	if fp := slices.Collect(c.Names(VarFirstPrivate)); !reflect.DeepEqual(fp, []string{"b"}) {
		t.Errorf("FirstPrivate = %v", fp)
	}

	d = mustParse(t, "taskloop grainsize(64) nogroup untied")
	if d.Clauses.rare().Grainsize != 64 || !d.Clauses.rare().NoGroup || !d.Clauses.rare().Untied {
		t.Errorf("taskloop clauses = %+v", d.Clauses)
	}
	d = mustParse(t, "taskloop num_tasks(8)")
	if d.Clauses.rare().NumTasks != 8 || d.Clauses.rare().Grainsize != 0 {
		t.Errorf("taskloop clauses = %+v", d.Clauses)
	}
}

func TestTaskDirectiveString(t *testing.T) {
	for _, text := range []string{
		"task private(a) if(x) final(y) untied",
		"taskloop grainsize(64) nogroup",
		"taskloop num_tasks(8)",
		"taskwait",
		"taskgroup",
	} {
		d := mustParse(t, text)
		// String() must itself re-parse to the same directive (surface
		// syntax is stable), the property the preprocessor's fused
		// parallel-for rewriting depends on.
		d2 := mustParse(t, d.String())
		if !reflect.DeepEqual(d, d2) {
			t.Errorf("String round trip %q → %q → %+v", text, d.String(), d2)
		}
	}
}

func TestParseCancelDirectives(t *testing.T) {
	cases := map[string]struct {
		kind   DirKind
		cancel CancelEnum
	}{
		"cancel parallel":             {DirCancel, CancelParallel},
		"cancel for":                  {DirCancel, CancelFor},
		"cancel do":                   {DirCancel, CancelFor}, // Fortran spelling
		"cancel taskgroup":            {DirCancel, CancelTaskgroup},
		"cancellation point parallel": {DirCancellationPoint, CancelParallel},
		"cancellation point for":      {DirCancellationPoint, CancelFor},
		"cancellation point taskgroup": {
			DirCancellationPoint, CancelTaskgroup},
	}
	for text, want := range cases {
		d := mustParse(t, text)
		if d.Kind != want.kind || d.Clauses.rare().Cancel != want.cancel {
			t.Errorf("%q → kind %v cancel %v, want %v %v", text, d.Kind, d.Clauses.rare().Cancel, want.kind, want.cancel)
		}
	}

	d := mustParse(t, "cancel taskgroup if(n > 4)")
	if d.Clauses.If != "n > 4" {
		t.Errorf("cancel if clause = %q, want %q", d.Clauses.If, "n > 4")
	}
}

func TestCancelDirectiveString(t *testing.T) {
	for _, text := range []string{
		"cancel parallel",
		"cancel for",
		"cancel taskgroup if(x)",
		"cancellation point parallel",
		"cancellation point taskgroup",
	} {
		d := mustParse(t, text)
		d2 := mustParse(t, d.String())
		if !reflect.DeepEqual(d, d2) {
			t.Errorf("String round trip %q → %q → %+v", text, d.String(), d2)
		}
	}
}

func TestValidateCancelKindProgrammatically(t *testing.T) {
	// The parser cannot produce these shapes; Validate guards directives
	// constructed in code (or decoded from a corrupted record).
	if err := Validate(&Directive{Kind: DirCancel}); err == nil {
		t.Error("cancel without a construct kind validated")
	}
	if err := Validate(&Directive{Kind: DirBarrier, Clauses: Clauses{Rare: &RareClauses{Cancel: CancelFor}}}); err == nil {
		t.Error("construct kind on a non-cancel directive validated")
	}
}

func TestParseScheduleModifiers(t *testing.T) {
	cases := map[string]SchedModEnum{
		"for schedule(monotonic:dynamic,4)":    SchedModMonotonic,
		"for schedule(nonmonotonic:dynamic,4)": SchedModNonmonotonic,
		"for schedule(nonmonotonic : guided)":  SchedModNonmonotonic,
		"for schedule(monotonic:static)":       SchedModMonotonic,
		"for schedule(dynamic,4)":              SchedModNone,
	}
	for text, want := range cases {
		d := mustParse(t, text)
		if d.Clauses.SchedMod != want {
			t.Errorf("%q → SchedMod %v, want %v", text, d.Clauses.SchedMod, want)
		}
	}
}

func TestParseOrderedDirectiveAndClause(t *testing.T) {
	if d := mustParse(t, "ordered"); d.Kind != DirOrdered {
		t.Errorf("ordered parsed as %v", d.Kind)
	}
	d := mustParse(t, "for ordered schedule(static,4)")
	if d.Kind != DirFor || !d.Clauses.Ordered {
		t.Errorf("for ordered → %v ordered=%v", d.Kind, d.Clauses.Ordered)
	}
	// The fused form must carry ordered to the loop half when distributed.
	pf := mustParse(t, "parallel for ordered schedule(monotonic:dynamic)")
	_, loop := DistributeParallelFor(pf)
	if !loop.Clauses.Ordered || loop.Clauses.SchedMod != SchedModMonotonic {
		t.Errorf("distributed loop lost ordered/modifier: %+v", loop.Clauses)
	}
	// And the loop half's surface rendering must round-trip through the
	// parser, as every directive's does. (Nothing in the lowering re-parses
	// it: shape hands the halves on as Directive values.)
	if _, err := ParseDirective(loop.String()); err != nil {
		t.Errorf("re-parse of %q: %v", loop.String(), err)
	}
}

func TestParseDependClauses(t *testing.T) {
	d := mustParse(t, "task depend(in: a, b) depend(out: c) depend(inout: d)")
	want := []DependClause{
		{Mode: DependIn, Vars: []string{"a", "b"}},
		{Mode: DependOut, Vars: []string{"c"}},
		{Mode: DependInOut, Vars: []string{"d"}},
	}
	if !reflect.DeepEqual(d.Clauses.rare().Depends, want) {
		t.Errorf("Depends = %+v, want %+v", d.Clauses.rare().Depends, want)
	}
	// in/out/inout stay usable as ordinary identifiers elsewhere — the
	// keyword-as-identifier rule the paper requires.
	d = mustParse(t, "task depend(in: in, out) private(inout)")
	if !reflect.DeepEqual(d.Clauses.rare().Depends, []DependClause{{Mode: DependIn, Vars: []string{"in", "out"}}}) {
		t.Errorf("Depends with keyword names = %+v", d.Clauses.rare().Depends)
	}
}

func TestParseTaskPriorityMergeableTaskyield(t *testing.T) {
	d := mustParse(t, "task priority(2*k + 1) mergeable")
	if d.Clauses.rare().Priority != "2*k + 1" || !d.Clauses.rare().Mergeable {
		t.Errorf("task clauses = %+v", d.Clauses)
	}
	d = mustParse(t, "taskloop priority(1) mergeable grainsize(8)")
	if d.Clauses.rare().Priority != "1" || !d.Clauses.rare().Mergeable || d.Clauses.rare().Grainsize != 8 {
		t.Errorf("taskloop clauses = %+v", d.Clauses)
	}
	d = mustParse(t, "taskyield")
	if d.Kind != DirTaskyield {
		t.Errorf("taskyield parsed as %v", d.Kind)
	}
}

func TestParseDependErrors(t *testing.T) {
	for _, text := range []string{
		"task depend(a)",                  // missing mode
		"task depend(in a)",               // missing colon
		"task depend(in:)",                // empty list
		"task depend(sink: a)",            // unlowered doacross form
		"for depend(in: a)",               // wrong directive
		"taskloop depend(in: a)",          // depend not on taskloop (spec)
		"taskyield depend(in: a)",         // standalone takes no clauses
		"taskwait priority(1)",            // priority not on taskwait
		"barrier mergeable",               // mergeable not on barrier
		"task depend(in:a) depend(out:a)", // conflicting modes on one var
		"task depend(in:a) depend(in:a)",  // duplicate item
		"task priority()",                 // empty expression
	} {
		if _, err := ParseDirective(text); err == nil {
			t.Errorf("%q accepted", text)
		}
	}
}

func TestDependDirectiveString(t *testing.T) {
	for _, text := range []string{
		"task depend(in:a,b) depend(out:c)",
		"task depend(inout:x) priority(p) mergeable",
		"taskloop priority(3) mergeable num_tasks(4)",
		"taskyield",
	} {
		d := mustParse(t, text)
		d2 := mustParse(t, d.String())
		if !reflect.DeepEqual(d, d2) {
			t.Errorf("String round trip %q → %q → %+v", text, d.String(), d2)
		}
	}
}

func TestParseTileDirective(t *testing.T) {
	d := mustParse(t, "tile sizes(64,8)")
	if d.Kind != DirTile {
		t.Fatalf("kind = %v, want tile", d.Kind)
	}
	if !reflect.DeepEqual(d.Clauses.rare().Sizes, []int64{64, 8}) {
		t.Fatalf("sizes = %v, want [64 8]", d.Clauses.rare().Sizes)
	}
}

func TestParseUnrollDirective(t *testing.T) {
	cases := []struct {
		text   string
		spec   UnrollEnum
		factor int64
	}{
		{"unroll", UnrollNone, 0},
		{"unroll full", UnrollFull, 0},
		{"unroll partial", UnrollPartial, 0},
		{"unroll partial(4)", UnrollPartial, 4},
	}
	for _, tc := range cases {
		d := mustParse(t, tc.text)
		if d.Kind != DirUnroll {
			t.Fatalf("%q: kind = %v, want unroll", tc.text, d.Kind)
		}
		if d.Clauses.rare().Unroll != tc.spec || d.Clauses.rare().UnrollFactor != tc.factor {
			t.Fatalf("%q: spec=%v factor=%d, want %v/%d",
				tc.text, d.Clauses.rare().Unroll, d.Clauses.rare().UnrollFactor, tc.spec, tc.factor)
		}
	}
}

func TestTransformDirectiveString(t *testing.T) {
	for _, text := range []string{
		"tile sizes(64,8)",
		"unroll",
		"unroll full",
		"unroll partial",
		"unroll partial(4)",
	} {
		d := mustParse(t, text)
		if got := d.String(); got != text {
			t.Errorf("String() = %q, want %q", got, text)
		}
		// Render → reparse → render is a fixed point.
		d2 := mustParse(t, d.String())
		if d2.String() != d.String() {
			t.Errorf("String() not stable for %q: %q", text, d2.String())
		}
	}
}

func TestParseTransformErrors(t *testing.T) {
	cases := []struct{ text, wantErr string }{
		{"tile", "requires a sizes clause"},
		{"tile sizes()", "sizes value"},
		{"tile sizes(0)", "positive integers"},
		{"tile sizes(4) private(x)", "not permitted"},
		{"tile sizes(4) sizes(8)", "at most one sizes clause"},
		{"for sizes(4)", "not permitted"},
		{"unroll full partial(2)", "at most one of full and partial"},
		{"unroll partial(2) full", "at most one of full and partial"},
		{"unroll partial(2000)", "exceeds the maximum"},
		{"unroll nowait", "not permitted"},
		{"tile sizes(1,1,1,1,1,1,1,1)", "exceeds the maximum 7"},
		{"tile sizes(536870912)", "outside [1, 536870912)"},
	}
	for _, tc := range cases {
		_, err := ParseDirective(tc.text)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ParseDirective(%q) error = %v, want mention of %q", tc.text, err, tc.wantErr)
		}
	}
}
