package kmp

// ForkCallArgs mirrors the variadic protocol of __kmpc_fork_call as the
// paper uses it (Section III-B1): the outlined function receives three
// opaque argument groups — pointers to structures holding the firstprivate,
// shared and reduction variables — forwarded to every team thread.
//
// In the paper these are ?*anyopaque (Zig's void*); here they are `any`.
// The caller packs typed *struct pointers, and the microtask casts them
// back with type assertions, exactly the cast-at-entry choreography the
// paper describes:
//
//	type shGroup struct{ a []float64; n *int }
//	kmp.ForkCallArgs(loc, 4, func(t *kmp.Thread, fp, sh, red any) {
//		s := sh.(*shGroup)
//		…
//	}, nil, &shGroup{a: a, n: &n}, nil)
//
// The preprocessor's generated code does not use this path: Go closures
// capture typed variables directly, which subsumes group marshalling
// without needing the type information a preprocessor lacks. (Zig can
// outline without semantic analysis because @TypeOf queries types in
// source; Go has no equivalent, so the closure is the type-erased outlining
// vehicle.) ForkCallArgs exists so the runtime protocol
// itself is reproduced and measurable (ablation A4 compares the two).
func ForkCallArgs(loc Ident, nthreads int, fn func(t *Thread, fp, sh, red any), fp, sh, red any) {
	ForkCall(loc, nthreads, func(t *Thread) { fn(t, fp, sh, red) })
}
