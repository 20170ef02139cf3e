package npb

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

// exactLCG is the reference x_{k+1} = a·x_k mod 2^46 in exact integer
// arithmetic (math/big), against which randlc must be bit-identical — the
// property that makes NPB verification constants reachable at all.
func exactLCG(x, a int64, steps int) int64 {
	mod := new(big.Int).Lsh(big.NewInt(1), 46)
	xb := big.NewInt(x)
	ab := big.NewInt(a)
	for i := 0; i < steps; i++ {
		xb.Mul(xb, ab)
		xb.Mod(xb, mod)
	}
	return xb.Int64()
}

// randlcDouble is NPB's portable randlc: a·x mod 2^46 computed in double
// precision by splitting both operands into 23-bit halves, with three
// float-to-integer truncations per draw. It is the oracle the integer
// generator must match bit for bit, state and output.
func randlcDouble(x *float64, a float64) float64 {
	const (
		r23 = 1.0 / (1 << 23)
		t23 = 1 << 23
	)
	// Split a and x into a1·2^23 + a2.
	t1 := r23 * a
	a1 := float64(int64(t1))
	a2 := a - t23*a1

	t1 = r23 * (*x)
	x1 := float64(int64(t1))
	x2 := *x - t23*x1

	// z = lower 46 bits of a1·x2 + a2·x1 (the middle partial products).
	t1 = a1*x2 + a2*x1
	t2 := float64(int64(r23 * t1))
	z := t1 - t23*t2

	t3 := t23*z + a2*x2
	t4 := float64(int64(r46 * t3))
	*x = t3 - t46*t4
	return r46 * (*x)
}

// skipAheadDouble is the binary jump over randlcDouble.
func skipAheadDouble(s, a float64, n int64) float64 {
	for n > 0 {
		if n&1 == 1 {
			randlcDouble(&s, a)
		}
		randlcDouble(&a, a)
		n >>= 1
	}
	return s
}

// The seed and multiplier pairs the kernels draw from: IS and CG start at
// 314159265, EP at 271828183, all with multiplier 5^13.
var kernelStreams = []struct {
	name    string
	seed, a float64
}{
	{"is/cg", DefaultSeed, DefaultMult},
	{"ep", 271828183, DefaultMult},
}

func TestRandlcMatchesDouble(t *testing.T) {
	for _, ks := range kernelStreams {
		x, y := ks.seed, ks.seed
		for i := 0; i < 1<<20; i++ {
			got, want := Randlc(&x, ks.a), randlcDouble(&y, ks.a)
			if got != want || x != y {
				t.Fatalf("%s draw %d: integer (%v, state %v), double (%v, state %v)", ks.name, i, got, x, want, y)
			}
		}
	}
}

// The squaring chain a^(2^k) mod 2^46 is the multiplier SkipAhead uses at
// bit k of the jump.
func TestSquaringChainMatchesDouble(t *testing.T) {
	x, y := DefaultMult, DefaultMult
	for k := 1; k <= 45; k++ {
		Randlc(&x, x)
		randlcDouble(&y, y)
		if x != y {
			t.Fatalf("a^(2^%d): integer %v, double %v", k, x, y)
		}
	}
}

func TestVranlcMatchesDouble(t *testing.T) {
	for _, ks := range kernelStreams {
		for _, n := range []int{0, 1, 257, 1 << 16} {
			x, y := ks.seed, ks.seed
			batch := make([]float64, n)
			Vranlc(n, &x, ks.a, batch)
			for i, got := range batch {
				if want := randlcDouble(&y, ks.a); got != want {
					t.Fatalf("%s n=%d: vranlc[%d] = %v, double %v", ks.name, n, i, got, want)
				}
			}
			if x != y {
				t.Fatalf("%s n=%d: state %v, double %v", ks.name, n, x, y)
			}
		}
	}
}

func TestVranlcMatchesRandlc(t *testing.T) {
	x1 := DefaultSeed
	x2 := DefaultSeed
	batch := make([]float64, 257)
	Vranlc(len(batch), &x1, DefaultMult, batch)
	for i := range batch {
		want := Randlc(&x2, DefaultMult)
		if batch[i] != want {
			t.Fatalf("vranlc[%d] = %g, randlc = %g", i, batch[i], want)
		}
	}
	if x1 != x2 {
		t.Fatalf("states diverged: %g vs %g", x1, x2)
	}
}

// SkipAhead against the double-precision jump and against a^n·x mod 2^46
// in math/big, for jumps up to 2^40.
func TestSkipAheadMatchesDouble(t *testing.T) {
	mod := new(big.Int).Lsh(big.NewInt(1), 46)
	ns := []int64{0, 1, 2, 3, 1<<16 - 1, 1 << 20, 1<<32 + 5, 1<<40 - 1, 1 << 40}
	for k := int64(1); k < 40; k += 3 {
		ns = append(ns, k*k*k*k*k*k*k)
	}
	for _, ks := range kernelStreams {
		for _, n := range ns {
			got := SkipAhead(ks.seed, ks.a, n)
			if want := skipAheadDouble(ks.seed, ks.a, n); got != want {
				t.Fatalf("%s SkipAhead(%d) = %v, double %v", ks.name, n, got, want)
			}
			e := new(big.Int).Exp(big.NewInt(int64(ks.a)), big.NewInt(n), mod)
			e.Mul(e, big.NewInt(int64(ks.seed))).Mod(e, mod)
			if want := e.Int64(); int64(got) != want {
				t.Fatalf("%s SkipAhead(%d) = %v, exact %d", ks.name, n, got, want)
			}
		}
	}
}

// FuzzLCG checks the integer generator against exact arithmetic and the
// double-precision oracle for any state and multiplier in [1, 2^46).
func FuzzLCG(f *testing.F) {
	f.Add(uint64(DefaultSeed), uint64(DefaultMult))
	f.Add(uint64(271828183), uint64(DefaultMult))
	f.Add(uint64(mask46), uint64(mask46))
	f.Add(uint64(1), uint64(1))
	f.Fuzz(func(t *testing.T, xr, ar uint64) {
		x0, a := float64(xr%mask46+1), float64(ar%mask46+1)
		x, y := x0, x0
		for step := 1; step <= 3; step++ {
			got, want := Randlc(&x, a), randlcDouble(&y, a)
			if got != want || x != y {
				t.Fatalf("x0=%v a=%v step %d: integer (%v, state %v), double (%v, state %v)", x0, a, step, got, x, want, y)
			}
			if exact := exactLCG(int64(x0), int64(a), step); int64(x) != exact {
				t.Fatalf("x0=%v a=%v step %d: state %v, exact %d", x0, a, step, x, exact)
			}
		}
	})
}

func TestInDomain(t *testing.T) {
	// DefaultSeed and DefaultMult also serve the IS kernel, which has no
	// generator constants of its own.
	for _, v := range []float64{0, 1, DefaultSeed, DefaultMult, mask46} {
		if !InDomain(v) {
			t.Errorf("InDomain(%v) = false", v)
		}
	}
	for _, v := range []float64{-1, 0.5, t46, 1 << 50, math.NaN(), math.Inf(1)} {
		if InDomain(v) {
			t.Errorf("InDomain(%v) = true", v)
		}
	}
}

func TestRandlcMatchesExactArithmetic(t *testing.T) {
	x := DefaultSeed
	for step := 1; step <= 1000; step++ {
		Randlc(&x, DefaultMult)
		if got, want := int64(x), exactLCG(int64(DefaultSeed), int64(DefaultMult), step); got != want {
			t.Fatalf("step %d: randlc state %d, exact LCG %d", step, got, want)
		}
	}
}

func TestRandlcReturnsUnitInterval(t *testing.T) {
	x := DefaultSeed
	for i := 0; i < 10000; i++ {
		v := Randlc(&x, DefaultMult)
		if v <= 0 || v >= 1 {
			t.Fatalf("randlc value %g outside (0,1) at step %d", v, i)
		}
	}
}

func TestSkipAheadMatchesIteration(t *testing.T) {
	for _, n := range []int64{0, 1, 2, 3, 7, 64, 1000, 65536} {
		want := DefaultSeed
		for i := int64(0); i < n; i++ {
			Randlc(&want, DefaultMult)
		}
		if got := SkipAhead(DefaultSeed, DefaultMult, n); got != want {
			t.Fatalf("SkipAhead(%d) = %g, iterated = %g", n, got, want)
		}
	}
}

// Property: SkipAhead composes — jumping a+b equals jumping a then b.
func TestSkipAheadComposes(t *testing.T) {
	f := func(aRaw, bRaw uint16) bool {
		a, b := int64(aRaw%5000), int64(bRaw%5000)
		direct := SkipAhead(DefaultSeed, DefaultMult, a+b)
		twoStep := SkipAhead(SkipAhead(DefaultSeed, DefaultMult, a), DefaultMult, b)
		return direct == twoStep
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParseClass(t *testing.T) {
	for _, s := range []string{"S", "w", " A ", "b", "C"} {
		if _, err := ParseClass(s); err != nil {
			t.Errorf("ParseClass(%q): %v", s, err)
		}
	}
	for _, s := range []string{"", "D", "X", "SS"} {
		if _, err := ParseClass(s); err == nil {
			t.Errorf("ParseClass(%q) succeeded", s)
		}
	}
}

func TestTimerAccumulates(t *testing.T) {
	var tm Timer
	tm.Start()
	tm.Stop()
	first := tm.Seconds()
	tm.Start()
	tm.Stop()
	if tm.Seconds() < first {
		t.Fatal("timer went backwards")
	}
	tm.Reset()
	if tm.Seconds() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestRelErrOK(t *testing.T) {
	if !RelErrOK(1.0000000001, 1.0, 1e-8) {
		t.Error("tiny relative error rejected")
	}
	if RelErrOK(1.1, 1.0, 1e-8) {
		t.Error("large relative error accepted")
	}
	if !RelErrOK(0, 0, 1e-8) {
		t.Error("exact zero rejected")
	}
	if !RelErrOK(-2.00000000001, -2.0, 1e-8) {
		t.Error("negative pair rejected")
	}
}
