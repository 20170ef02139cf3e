// Package core implements the paper's primary contribution mapped to Go:
// OpenMP loop directives grafted onto a language that has no pragma
// mechanism.
//
// The paper (Kacs et al., 2024) adds pragmas to Zig as special comments —
// the same trick Fortran uses — and threads them through the Zig compiler in
// three stages; this package reproduces each stage over Go source:
//
//  1. Tokenisation (token.go): the sentinel ("//omp", the analog of Fortran's
//     !$omp) is recognised, then the rest of the pragma is tokenised as
//     ordinary code — option B of the paper's Figure 1. OpenMP keywords are
//     NOT reserved words: they are stored as identifier tokens and
//     disambiguated during parsing through a string→keyword-tag hash map and
//     an eatToken that accepts both ordinary and keyword tags, exactly the
//     design Section III-A describes (reserving them would break existing
//     code that uses `parallel` or `shared` as variable names).
//
//  2. Parsing (parse.go) into a Directive whose Clauses are plain Go
//     fields, checked by Validate (validate.go); the clauses no loop
//     directive carries sit behind one pointer (RareClauses), so a loop's
//     directive stays within 128 bytes. The paper packs clause
//     data into the Zig compiler's 32-bit extra_data array; nothing here
//     packs, but the field widths stay as input bounds (chunk below 2^29,
//     collapse at most 15 — the paper's §III-A2 limits — and the same
//     packing's grainsize, num_tasks and tile-size bounds), kept as a
//     dialect rule so every accepted pragma fits the paper's encoding.
//
//  3. Preprocessing (preprocess.go and friends): the source rewriter. The
//     paper's Listing 5 is multi-pass — replace every parallel region,
//     rescan, replace every worksharing loop, rescan, then the
//     synchronisation directives — which costs little in Zig, where a
//     rescan walks an in-memory token stream. In Go a rescan is a run of
//     go/parser, so this package departs from the listing: the file is
//     parsed once; every pragma comment is bound to the statement that
//     follows it in one ordered merge of comments and statements; the bound
//     pragmas are nested by source range into a directive tree (section
//     under sections, ordered under its `for ordered`, a stacked pragma
//     over the construct below it, `parallel for` as a parallel node with
//     a synthesised for child); and one recursion lowers the tree into one
//     buffer per file, the way the paper splices replacement text into its
//     token stream. Each node writes its generated Go — outlined region
//     bodies, loop bounds lifted from the for-statement header, shared/
//     private/firstprivate/reduction variable treatment, reductions folded
//     at the construct's barrier — where the enclosing construct's copy of its block
//     reaches it, in ascending offset, already indented for the depth the
//     block lands at: no node's text is built apart and copied into its
//     parent's, so each output byte is written once. What a later pass used to
//     find by re-parsing rewritten text (the thread variable in scope,
//     whether the file cancels, which loop an ordered region binds to, an
//     orphaned section) is a query over the tree, and tile hands the loops
//     it generates to a worksharing directive stacked above it as IR. The
//     output is canonical by construction (emit.go): generated text is
//     indented by brace depth, the user's statements are shifted to their
//     new depth, and user expressions printed in a new context get gofmt's
//     precedence spacing — one parse per file and no print, the paper's
//     splice-without-reprint design. The layout contract (gofmt output for
//     gofmt input, the input's own layout otherwise) and the text that
//     still goes through go/format are stated once, in emit.go's "Layout"
//     comment.
//
// # Directives and clauses
//
// A pragma is a line comment immediately preceding the construct it
// applies to. The directives and the clauses each accepts (Validate
// rejects any other clause rather than ignore it):
//
//	parallel                     private firstprivate shared default reduction num_threads if
//	for                          private firstprivate lastprivate reduction schedule collapse ordered nowait
//	parallel for                 the union of the two, less nowait
//	sections, section            private firstprivate nowait (on sections)
//	single                       private firstprivate copyprivate nowait
//	master, masked               —
//	critical[(name)]             —
//	barrier                      —
//	atomic                       — (x++, x--, x op= e, x = expr)
//	threadprivate(vars)          — (package-level variables)
//	ordered                      — (in a loop carrying the ordered clause)
//	task                         private firstprivate shared default if final untied depend priority mergeable
//	taskwait, taskyield          —
//	taskgroup                    —
//	taskloop                     private firstprivate shared default if final untied grainsize num_tasks nogroup priority mergeable
//	cancel <kind>                if
//	cancellation point <kind>    —
//	tile                         sizes(t1,…,tk)
//	unroll                       full | partial[(n)]
//
// Schedules are OpenMP's static[,chunk], dynamic, guided, auto and
// runtime, with the monotonic: and nonmonotonic: modifiers. Reduction
// operators are + - * min max & | ^ && || (the bitwise ones on integers
// only); every reduction lowers to omp.Reduce or omp.ReduceBool, which
// folds the partials in thread order at the construct's barrier, so a team
// size gives the same bits on every run.
// The <kind> of cancel and cancellation point is parallel, for or
// taskgroup; cancel takes effect only with cancellation on
// (OMP_CANCELLATION, or omp.SetCancellation). OpenMP also allows lastprivate and reduction on
// sections and collapse, reduction and lastprivate on taskloop; they are
// not lowered there, so they are rejected.
//
// # Lowering
//
// The front end never runs go/types: where a lowering needs a type, it
// hands a user value to a generic helper in omp/codegen_support.go and gc
// infers the type. A loop variable is omp.LoopVar(lb, k, st), in its lower
// bound's type as `i := lb` would have it, with an int64 trip count. A
// worksharing loop is a plain loop over the thread's chunks (omp.ForStart,
// omp.ForNext) around the user's loop, whose single level steps its
// variable in the post statement, omp.LoopVar(i, 1, st). For the
// assignment form `for i = lb; …` the lower bound is first bound to a copy
// of i (`__omp_lb0 := i` then `__omp_lb0 = lb`; __omp_tlb0 and __omp_ulb
// under tile and unroll, and a full unroll's `i := i` then `i = 3`), so the
// loop variable takes the declared variable's type. Every lowering declares
// its own copy of i, in the construct: the original variable keeps the
// value it had before the construct, not the exit value a serial run of the
// loop leaves in it (only the identity `unroll partial(1)`, which keeps the
// loop as written, leaves that). An `//omp atomic` update is omp.AtomicAdd/Sub/And/Or
// on the variable's address (a native atomic for an integer) or, for any
// other operator and for `x = expr`, the paper's Listing 6 loop over
// omp.AtomicLoad and omp.AtomicCAS. Threadprivate accesses inside a region use the region's
// thread variable; only those outside any region look the thread up.
//
// The tasking directives (task, taskwait, taskgroup, taskloop) lower onto
// the work-stealing task runtime (internal/kmp/task.go): a task block is
// outlined into a deferred closure with firstprivate values captured by
// copy at creation, and a taskloop carves its canonical for statement into
// chunk tasks by grainsize/num_tasks.
//
// # Loop transformations
//
// The tile and unroll directives (OpenMP 5.1, §9 of the 5.2 spec; the
// Kruse & Finkel loop-transformation pragma papers) are the only
// directives that do not lower to runtime calls: they rewrite the
// annotated canonical loop nest into restructured plain-Go loops
// (transform.go, over a loop-nest IR lifted from the for-statement
// headers). In the directive tree a transformation is the inner of the
// directive stacked above it, and is lowered first:
//
//	//omp parallel for collapse(2)
//	//omp tile sizes(64,64)
//	for i := 0; i < n; i++ {
//		for j := 0; j < m; j++ { … }
//	}
//
// strip-mines the nest into a 4-deep grid/point nest and distributes the
// 64×64 tile grid across the team. The ordering rules follow:
//
//   - The directive nearest the loop applies first; each directive above
//     it applies to the loop(s) the transformation below generated. So
//     `parallel for collapse(2)` above `tile sizes(64,64)` distributes
//     the generated tile grid, and `unroll` above `tile` unrolls the
//     generated grid loop.
//
//   - tile sizes(t1,…,tk) consumes a k-deep perfect rectangular nest and
//     generates a 2k-deep nest: k tile-grid loops (canonical worksharing
//     shape, stepping by ti over the level's logical iteration space)
//     over k point loops (tuple-init, hoisted min(origin+ti, trip)
//     fringe bound — correct for trip counts the sizes do not divide). A
//     collapse stacked above may name at most the k grid loops; deeper
//     collapses are rejected as non-canonical.
//
//   - unroll consumes the loop structure entirely: full expands a
//     constant-trip loop into straight-line blocks; partial(n) emits a
//     factor-stepped main loop with n body copies plus a scalar
//     remainder loop covering trip%n — so nothing can be stacked above
//     an unroll except another transformation's generated loop. Bare
//     unroll chooses heuristically: full for constant trips ≤ 16,
//     otherwise partial(4).
//
//   - A directive written between a transformation and its loop cannot
//     be applied to loops that no longer exist, so it is rejected with a
//     stack-it-above diagnostic instead.
//
// Branching that would change meaning under restructuring (return, break,
// goto out of the nest; continue and labels in duplicated unroll bodies)
// is rejected at preprocessing time.
//
// The runtime never sees a transformation, only the generated shape: under
// the stacked `parallel for` above, the loop's iteration space is the tile
// grid (one logical iteration per tile), and each chunk runs whole tiles
// through the fringe-guarded point loops. A tile therefore behaves like a
// natural chunk: schedule clauses granulate in tiles, steals migrate tiles,
// and cancellation checks run between tiles, never inside one.
package core
