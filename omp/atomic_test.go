package omp

import (
	"sync"
	"testing"
)

// The three update sites of one variable — `x += 3`, `x = x + 1 + 1` and
// `x++`, as the lowering emits them — running at the same time must lose
// no update: on an int64 two are native adds and one a CAS loop, on a
// float64 all three are CAS loops. The float terms are exact, so the
// totals are too.
func TestAtomicSitesMutuallyAtomic(t *testing.T) {
	const goroutines, iters = 6, 20000
	want := goroutines / 3 * iters * (3 + 2 + 1)
	var i64 int64
	var f64 float64
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range iters {
				switch g % 3 {
				case 0:
					AtomicAdd(&i64, 3)
					AtomicAdd(&f64, 3)
				case 1:
					x := AtomicLoad(&i64)
					for !AtomicCAS(&i64, &x, x+1+1) {
					}
					y := AtomicLoad(&f64)
					for !AtomicCAS(&f64, &y, y+1+1) {
					}
				case 2:
					AtomicAdd(&i64, 1)
					AtomicAdd(&f64, 1)
				}
			}
		}()
	}
	wg.Wait()
	if i64 != int64(want) || f64 != float64(want) {
		t.Fatalf("totals %d and %v, want %d", i64, f64, want)
	}
}

// Every width and operator: the native 32- and 64-bit words, floats, and
// the 8- and 16-bit integers that take a striped lock, under contention.
func TestAtomicHelpersEveryPath(t *testing.T) {
	type small uint16
	var (
		i8   int8
		u16  small
		u32  uint32
		f32  float32
		u    uint
		bits uint64
		mask int32 = -1
	)
	const goroutines, iters = 4, 1000
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range iters {
				AtomicAdd(&i8, 1) // wraps, like i8 += 1
				AtomicAdd(&u16, 3)
				AtomicSub(&u32, 2)
				AtomicAdd(&f32, 0.5)
				AtomicSub(&u, 1)
				AtomicOr(&bits, 1<<(i%64))
				AtomicAnd(&mask, ^(int32(1) << (g*8 + i%8)))
			}
		}()
	}
	wg.Wait()
	n := goroutines * iters // a variable, so that the conversions below wrap
	if i8 != int8(n) || u16 != small(3*n) || u32 != -uint32(2*n) || f32 != float32(n)/2 || u != -uint(n) || bits != ^uint64(0) || mask != 0 {
		t.Fatalf("got i8=%d u16=%d u32=%d f32=%v u=%d bits=%x mask=%x", i8, u16, u32, f32, u, bits, mask)
	}
}

// A failed compare-and-swap hands back the value that beat it, so the next
// attempt computes from it, as Listing 6's loop does; NaN compares by bits.
func TestAtomicCASLoadsCurrent(t *testing.T) {
	x, stale := int16(5), int16(4)
	if AtomicCAS(&x, &stale, 9) || stale != 5 || x != 5 {
		t.Fatalf("stale CAS: ok, old=%d, x=%d", stale, x)
	}
	if !AtomicCAS(&x, &stale, 9) || x != 9 {
		t.Fatalf("fresh CAS failed: x=%d", x)
	}
	nan := float64(0)
	nan = nan / nan
	old := nan
	if !AtomicCAS(&nan, &old, 1) || nan != 1 {
		t.Fatalf("CAS from NaN failed: %v", nan)
	}
}

// LoopVar and TripCount in the loop variable's own type: a descending
// unsigned loop steps by a negative int64, and a named type stays itself.
func TestLoopVarTyped(t *testing.T) {
	type index int32
	if n := TripCount(uint(10), 0, -1, false); n != 10 {
		t.Fatalf("TripCount(uint 10 > 0, -1) = %d, want 10", n)
	}
	for k := int64(0); k < 10; k++ {
		if got := LoopVar(uint(10), k, -1); got != uint(10-k) {
			t.Fatalf("LoopVar(uint 10, %d, -1) = %d", k, got)
		}
	}
	if got := LoopVar(uint8(250), 5, -1); got != 245 {
		t.Fatalf("LoopVar(uint8 250, 5, -1) = %d", got)
	}
	var v index = LoopVar(index(-7), 3, 4)
	if v != 5 {
		t.Fatalf("LoopVar(index -7, 3, 4) = %d", v)
	}
}
