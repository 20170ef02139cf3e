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
//     fields, checked by Validate (validate.go). The paper packs clause
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
//     splice-without-reprint design. go/format runs only as a fallback,
//     when the input is not gofmt-clean or holds text the emitter does
//     not lay out (multi-line raw strings and comments, renamed lines
//     aligned with a neighbour's trailing comment).
//
// The pragma surface accepted, on a line comment immediately preceding the
// construct it applies to:
//
//	//omp parallel [private(a,b)] [firstprivate(c)] [shared(d)]
//	//              [default(shared|none)] [reduction(op:v,…)]
//	//              [num_threads(expr)] [if(expr)]
//	//omp for [schedule(kind[,chunk])] [collapse(n)] [nowait]
//	//        [private…] [firstprivate…] [lastprivate…] [reduction…]
//	//omp parallel for …          (fusion of the two)
//	//omp sections / //omp section
//	//omp single [nowait] / //omp master / //omp barrier
//	//omp critical[(name)] / //omp atomic / //omp threadprivate(v)
//	//omp task [private…] [firstprivate…] [shared…] [default…]
//	//         [if(expr)] [final(expr)] [untied]
//	//omp taskwait / //omp taskgroup
//	//omp taskloop [grainsize(n) | num_tasks(n)] [nogroup]
//	//             [private…] [firstprivate…] [shared…] [if…] [final…] [untied]
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
package core
