package omp

import "gomp/internal/atomicx"

// Atomic cells re-exported for the atomic directive: `//omp atomic` updates
// lower onto these types' RMW methods (native ops where Go provides them,
// the paper's Listing 6 CAS loop for multiply and divide).
type (
	// AtomicInt64 lowers atomic updates of integer variables.
	AtomicInt64 = atomicx.Int64
	// AtomicUint64 lowers atomic updates of unsigned variables.
	AtomicUint64 = atomicx.Uint64
	// AtomicFloat64 lowers atomic updates of float variables.
	AtomicFloat64 = atomicx.Float64
)
