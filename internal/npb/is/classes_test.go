package is

import (
	"testing"

	"gomp/internal/npb"
)

// Class geometry from the NPB 3 problem statement.
func TestClassParameters(t *testing.T) {
	cases := map[npb.Class]classParams{
		npb.ClassS: {16, 11},
		npb.ClassW: {20, 16},
		npb.ClassA: {23, 19},
		npb.ClassB: {25, 21},
		npb.ClassC: {27, 23},
	}
	for class, want := range cases {
		got, ok := classes[class]
		if !ok {
			t.Fatalf("class %v missing", class)
		}
		if got != want {
			t.Errorf("class %v = %+v, want %+v", class, got, want)
		}
	}
}

// Class W, parallel, cross-checked against its own serial rank hash.
func TestClassWVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("class W run")
	}
	ser, err := RunSerial(npb.ClassW)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(npb.ClassW, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(ser) || !Verify(par) {
		t.Fatal("class W verification failed")
	}
	if ser.RankHash != par.RankHash {
		t.Fatalf("class W rank hashes diverge: %016x vs %016x", ser.RankHash, par.RankHash)
	}
}

// The bucket shift must keep every bucket's value range disjoint and
// aligned — the property that makes the goroutine baseline's per-bucket
// counting writes conflict-free.
func TestBucketGeometry(t *testing.T) {
	for class, p := range classes {
		shift := p.maxKeyLog2 - numBucketsLog2
		if shift < 0 {
			t.Errorf("class %v: more buckets than key values", class)
		}
		buckets := 1 << numBucketsLog2
		span := int32(1) << shift
		if int64(buckets)*int64(span) != int64(1)<<p.maxKeyLog2 {
			t.Errorf("class %v: buckets×span != key space", class)
		}
	}
}
