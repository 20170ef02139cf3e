package omp

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"gomp/internal/kmp"
)

// This file holds the entry points that exist for the preprocessor's
// generated code — the analog of the paper's `.omp.internal` namespace of
// helpers that "are not intended to be used by programmers directly"
// (Section III-C), though nothing stops direct use. The preprocessor has no
// type information; every helper here is generic, so the Go compiler infers
// the types from the user's own variables and bounds.

// TripCount returns the iteration count of the canonical loop `for i := lb;
// i CMP ub; i += st`, with inclusive selecting <=/>=. lb and ub keep the
// loop variable's type; the count is an int64 whatever that type is.
func TripCount[T Integer](lb, ub T, st int64, inclusive bool) int64 {
	return kmp.TripCount(lb, ub, st, inclusive)
}

// LoopVar returns a canonical loop's variable at logical iteration k,
// lb + k·st, in the lower bound's type — the type `i := lb` gives the
// variable. The product wraps as T's own arithmetic does, so the value is
// exact for every integer type.
func LoopVar[T Integer](lb T, k, st int64) T { return lb + T(k*st) }

// ReduceIdentity returns the identity element of op for T, inferred from a
// pointer to the reduction variable, which it never reads: another thread
// may be writing the shared variable while a thread initialises its copy.
// Generated reductions initialise each thread's copy with it, as the
// OpenMP standard requires.
func ReduceIdentity[T Numeric](op ReduceOp, _ *T) T {
	r := Reduction[T]{op: op}
	return r.Identity()
}

// CopyPrivateAssign stores the single-construct winner's published value
// into dst, inferring the type from the destination — the copyprivate
// lowering. The caller must be past the barrier that orders publish before
// fetch.
func CopyPrivateAssign[T any](t *Thread, dst *T) {
	if t == nil || !t.InParallel() {
		return // team of one: dst already holds the value
	}
	*dst = t.CopyPrivateFetch().(T)
}

// CopyPrivatePublish makes v available to CopyPrivateAssign on the other
// team threads. Call from the Single winner before the separating barrier.
func CopyPrivatePublish(t *Thread, v any) {
	if t == nil || !t.InParallel() {
		return
	}
	t.CopyPrivatePublish(v)
}

// The atomic helpers are the lowering of `//omp atomic`, on the updated
// variable's address. The split is Section III-B1's: integer +, -, & and |
// are single sync/atomic instructions, and everything else — floating-point
// arithmetic, the other operators, and an update `x = expr` reading x — is
// the paper's Listing 6 compare-and-swap loop over AtomicLoad and
// AtomicCAS. The path is chosen by the type (and, on a 32-bit platform, the
// alignment of a 64-bit word) alone, so every atomic site that updates one
// location takes the same path and they are atomic with respect to each
// other. 8- and 16-bit integers, which sync/atomic cannot reach, and
// unaligned 64-bit words take one of a few address-striped locks.

// AtomicAdd atomically adds v to *p.
func AtomicAdd[T Numeric](p *T, v T) {
	if !isFloat[T]() {
		switch wordOf(p) {
		case 4:
			atomic.AddUint32((*uint32)(unsafe.Pointer(p)), uint32(v))
			return
		case 8:
			atomic.AddUint64((*uint64)(unsafe.Pointer(p)), uint64(v))
			return
		}
	}
	old := AtomicLoad(p)
	for !AtomicCAS(p, &old, old+v) {
	}
}

// AtomicSub atomically subtracts v from *p.
func AtomicSub[T Numeric](p *T, v T) {
	if !isFloat[T]() {
		switch wordOf(p) {
		case 4:
			atomic.AddUint32((*uint32)(unsafe.Pointer(p)), -uint32(v))
			return
		case 8:
			atomic.AddUint64((*uint64)(unsafe.Pointer(p)), -uint64(v))
			return
		}
	}
	old := AtomicLoad(p)
	for !AtomicCAS(p, &old, old-v) {
	}
}

// AtomicAnd atomically replaces *p with *p & v.
func AtomicAnd[T Integer](p *T, v T) {
	switch wordOf(p) {
	case 4:
		atomic.AndUint32((*uint32)(unsafe.Pointer(p)), uint32(v))
		return
	case 8:
		atomic.AndUint64((*uint64)(unsafe.Pointer(p)), uint64(v))
		return
	}
	old := AtomicLoad(p)
	for !AtomicCAS(p, &old, old&v) {
	}
}

// AtomicOr atomically replaces *p with *p | v.
func AtomicOr[T Integer](p *T, v T) {
	switch wordOf(p) {
	case 4:
		atomic.OrUint32((*uint32)(unsafe.Pointer(p)), uint32(v))
		return
	case 8:
		atomic.OrUint64((*uint64)(unsafe.Pointer(p)), uint64(v))
		return
	}
	old := AtomicLoad(p)
	for !AtomicCAS(p, &old, old|v) {
	}
}

// AtomicLoad atomically reads *p.
func AtomicLoad[T Numeric](p *T) T {
	switch wordOf(p) {
	case 4:
		w := atomic.LoadUint32((*uint32)(unsafe.Pointer(p)))
		return *(*T)(unsafe.Pointer(&w))
	case 8:
		w := atomic.LoadUint64((*uint64)(unsafe.Pointer(p)))
		return *(*T)(unsafe.Pointer(&w))
	}
	mu := lockOf(p)
	mu.Lock()
	v := *p
	mu.Unlock()
	return v
}

// AtomicCAS stores val in *p if *p still holds *old, bit for bit, and
// reports whether it did; if not, it loads *p's current value into *old.
// That is one turn of Listing 6's loop:
//
//	x := omp.AtomicLoad(p)
//	for !omp.AtomicCAS(p, &x, f(x)) {
//	}
func AtomicCAS[T Numeric](p, old *T, val T) bool {
	switch wordOf(p) {
	case 4:
		w, o := (*uint32)(unsafe.Pointer(p)), (*uint32)(unsafe.Pointer(old))
		if atomic.CompareAndSwapUint32(w, *o, *(*uint32)(unsafe.Pointer(&val))) {
			return true
		}
		*o = atomic.LoadUint32(w)
		return false
	case 8:
		w, o := (*uint64)(unsafe.Pointer(p)), (*uint64)(unsafe.Pointer(old))
		if atomic.CompareAndSwapUint64(w, *o, *(*uint64)(unsafe.Pointer(&val))) {
			return true
		}
		*o = atomic.LoadUint64(w)
		return false
	}
	mu := lockOf(p)
	mu.Lock()
	defer mu.Unlock()
	if bitsOf(*p) != bitsOf(*old) {
		*old = *p
		return false
	}
	*p = val
	return true
}

// wordOf returns the width of the sync/atomic word that holds the T at p,
// 4 or 8, or 0 when the atomics on it take a lock.
func wordOf[T Numeric](p *T) uintptr {
	switch size := unsafe.Sizeof(*p); {
	case size == 4, size == 8 && (unsafe.Sizeof(uintptr(0)) == 8 || uintptr(unsafe.Pointer(p))%8 == 0):
		return size
	}
	return 0
}

// atomicLocks serialise the atomics that no sync/atomic word holds, each
// location always on the same stripe.
var atomicLocks [8]struct {
	sync.Mutex
	_ [kmp.CacheLine - unsafe.Sizeof(sync.Mutex{})]byte
}

func lockOf[T Numeric](p *T) *sync.Mutex {
	return &atomicLocks[uintptr(unsafe.Pointer(p))/8%uintptr(len(atomicLocks))].Mutex
}
