package ep

import (
	"math"
	"runtime"
	"testing"

	"gomp/internal/npb"
)

// Class S against the published NPB reference sums — the strongest
// correctness signal available: it requires the LCG, the seed jumping, the
// polar method and the tallies all to be bit-compatible with the original.
func TestSerialClassSVerifies(t *testing.T) {
	st, err := RunSerial(npb.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(st) {
		t.Fatalf("class S failed verification: sx=%.15e sy=%.15e", st.Sx, st.Sy)
	}
	if st.Gc == 0 || st.Gc > st.Pairs {
		t.Fatalf("gaussian count %d out of range (pairs %d)", st.Gc, st.Pairs)
	}
	// Polar-method acceptance rate is π/4 ≈ 0.785.
	rate := float64(st.Gc) / float64(st.Pairs)
	if rate < 0.78 || rate > 0.79 {
		t.Fatalf("acceptance rate %f implausible", rate)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	serial, err := RunSerial(npb.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2, 4} {
		par, err := RunParallel(npb.ClassS, threads)
		if err != nil {
			t.Fatal(err)
		}
		if !Verify(par) {
			t.Fatalf("threads=%d: parallel run failed verification", threads)
		}
		if par.Q != serial.Q {
			t.Fatalf("threads=%d: annulus counts diverge\nserial   %v\nparallel %v", threads, serial.Q, par.Q)
		}
		if par.Gc != serial.Gc {
			t.Fatalf("threads=%d: gc %d != serial %d", threads, par.Gc, serial.Gc)
		}
		// Sums may differ only by combine order: 1e-12 relative.
		if !npb.RelErrOK(par.Sx, serial.Sx, 1e-12) || !npb.RelErrOK(par.Sy, serial.Sy, 1e-12) {
			t.Fatalf("threads=%d: sums diverge beyond reordering: %.17g vs %.17g", threads, par.Sx, serial.Sx)
		}
	}
}

// Determinism: the sums fold in thread order at the reduction's barrier, so
// Sx and Sy are bit-identical from run to run at each team size. At T=1 and
// T=2 the arrival-order cells this replaced were order-free too (one
// partial, or two, whose sum commutes); those bits were recorded with them.
func TestParallelDeterministic(t *testing.T) {
	runs := 20
	if raceEnabled {
		runs = 2
	}
	recorded := map[int][2]uint64{
		1: {0xc0a95fab5782f06c, 0xc0bb2e683649f51b},
		2: {0xc0a95fab5782f06c, 0xc0bb2e683649f522},
	}
	for threads := 1; threads <= 4; threads++ {
		var first [2]uint64
		for i := 0; i < runs; i++ {
			st, err := RunParallel(npb.ClassS, threads)
			if err != nil {
				t.Fatal(err)
			}
			got := [2]uint64{math.Float64bits(st.Sx), math.Float64bits(st.Sy)}
			if i == 0 {
				first = got
				if want, ok := recorded[threads]; ok && got != want {
					t.Fatalf("T=%d: sx, sy bits %#x, recorded %#x", threads, got, want)
				}
			} else if got != first {
				t.Fatalf("T=%d run %d: sx, sy bits %#x, first run gave %#x", threads, i, got, first)
			}
		}
	}
}

func TestGoroutinesMatchSerial(t *testing.T) {
	serial, err := RunSerial(npb.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	threads := runtime.NumCPU()
	if threads > 8 {
		threads = 8
	}
	gr, err := RunGoroutines(npb.ClassS, threads)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(gr) {
		t.Fatal("goroutine run failed verification")
	}
	if gr.Q != serial.Q || gr.Gc != serial.Gc {
		t.Fatal("goroutine counts diverge from serial")
	}
}

func TestUnsupportedClass(t *testing.T) {
	if _, err := RunSerial(npb.Class('Z')); err == nil {
		t.Fatal("class Z accepted")
	}
}

func TestVerifyRejectsCorruptedStats(t *testing.T) {
	st, err := RunSerial(npb.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	bad := *st
	bad.Sx *= 1.001
	if Verify(&bad) {
		t.Fatal("perturbed sx accepted")
	}
	bad = *st
	bad.Gc++
	if Verify(&bad) {
		t.Fatal("broken counter invariant accepted")
	}
}

func TestResultRendering(t *testing.T) {
	st, err := RunSerial(npb.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	r := st.Result("serial")
	if !r.Verified || r.Name != "EP" {
		t.Fatalf("result = %+v", r)
	}
	if st.Mops() <= 0 {
		t.Fatal("Mops <= 0")
	}
}

// The generator needs its seed and multiplier as integers in [0, 2^46).
func TestLCGConstantsInDomain(t *testing.T) {
	for name, v := range map[string]float64{"seedS": seedS, "seedA": seedA} {
		if !npb.InDomain(v) {
			t.Errorf("%s = %v is not an integer in [0, 2^46)", name, v)
		}
	}
}
