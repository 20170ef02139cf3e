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
//  2. Parsing (parse.go) into directive nodes with clause data packed into
//     an extra-data array of 32-bit integers (encode.go), reproducing the
//     Zig compiler's extra_data representation bit for bit: list clauses
//     (private, firstprivate, shared, …) as index slices into the array,
//     and the scalar clauses bit-packed — 3-bit schedule kind + 29-bit
//     chunk, 2-bit default, 1-bit nowait, 4-bit collapse (Section III-A2).
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
//     a synthesised for child); and one recursion lowers the tree, each
//     node splicing its children's generated Go — outlined region bodies,
//     loop bounds lifted from the for-statement header, shared/private/
//     firstprivate/reduction variable treatment, CAS-loop reductions — into
//     its own body range in ascending offset. What a later pass used to
//     find by re-parsing rewritten text (the thread variable in scope,
//     whether the file cancels, which loop an ordered region binds to, an
//     orphaned section) is a query over the tree, and tile hands the loops
//     it generates to a worksharing directive stacked above it as IR. Two
//     parses and one print per file: this one, and go/format's.
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
// The tasking directives (task, taskwait, taskgroup, taskloop) lower onto
// the work-stealing task runtime (internal/kmp/task.go): a task block is
// outlined into a deferred closure with firstprivate values captured by
// copy at creation, and a taskloop carves its canonical for statement into
// chunk tasks by grainsize/num_tasks — the packed clause word reuses the
// schedule-chunk trick bit for bit (encode.go word 5).
package core
