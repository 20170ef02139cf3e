// Package atomicx provides the atomic cells behind the `atomic` directive's
// re-exports (omp.AtomicInt64, …) and the arrival-order omp.Reduction.
//
// It mirrors the split described in Section III-B1 of "Pragma driven shared
// memory parallelism in Zig" (Kacs et al., 2024): operations the platform
// supports natively (add, sub, min, max, bitwise and/or/xor and
// compare-and-swap) map onto sync/atomic, while the operations Zig's — and
// Go's — atomic primitives lack (multiplication, division, nand, and
// floating-point arithmetic) are implemented with the compare-and-swap loop
// of the paper's Listing 6: load the current value, compute the update, and
// retry the exchange until no other thread has raced the slot.
//
// Cells are exported as concrete types (Int64, Uint64, Float64) rather than
// a single generic so the native fast paths stay monomorphic; RMW is the
// shared CAS-loop escape hatch on each cell.
package atomicx
