package is

import (
	"math/rand/v2"
	"testing"

	"gomp/internal/npb"
)

// reconstructVerify is NPB's full_verify as the reference writes it:
// place every key in the next free slot of its value's rank range, then
// check that the ranges were filled exactly and the placement is sorted.
// It is the oracle fullVerify must agree with on every rank array.
func reconstructVerify(pr *problem) bool {
	sorted := pr.buff2
	next := make([]int32, pr.maxKey)
	copy(next[1:], pr.ranks[:pr.maxKey-1]) // next[v] = #keys < v
	for _, k := range pr.keys {
		// A key of value k goes to the first free slot of k's range,
		// ranks[k-1] ≤ i < ranks[k].
		i := next[k]
		if i < 0 || i >= pr.ranks[k] || int(i) >= pr.nKeys {
			return false
		}
		sorted[i] = k
		next[k]++
	}
	// Conservation: every value's range is exactly filled, so the rank
	// array's implied histogram is the key multiset (and every slot of
	// sorted was written).
	for v, i := range next {
		if i != pr.ranks[v] {
			return false
		}
	}
	for i := 1; i < pr.nKeys; i++ {
		if sorted[i-1] > sorted[i] {
			return false
		}
	}
	return true
}

// Seeded corruptions of the class S ranks — none, ±1 bumps, swaps with a
// neighbour or a random entry, wild values — must get the same verdict
// from both verifiers.
func TestFullVerifyMatchesReconstruction(t *testing.T) {
	pr, _ := newProblem(npb.ClassS)
	pr.genKeys(0, pr.nKeys)
	pr.rankSerial()
	clean := append([]int32(nil), pr.ranks...)
	rng := rand.New(rand.NewPCG(1, 2))
	kinds := []struct {
		name    string
		corrupt func(v int)
	}{
		{"untouched", func(int) {}},
		{"bump", func(v int) { pr.ranks[v] += int32(2*rng.IntN(2) - 1) }},
		{"swap next", func(v int) {
			w := min(v+1, int(pr.maxKey)-1)
			pr.ranks[v], pr.ranks[w] = pr.ranks[w], pr.ranks[v]
		}},
		{"swap any", func(v int) {
			w := rng.IntN(int(pr.maxKey))
			pr.ranks[v], pr.ranks[w] = pr.ranks[w], pr.ranks[v]
		}},
		{"wild", func(v int) { pr.ranks[v] = int32(rng.Uint32()) }},
	}
	const perKind = 250
	for _, kind := range kinds {
		accepted := 0
		for i := 0; i < perKind; i++ {
			copy(pr.ranks, clean)
			kind.corrupt(rng.IntN(int(pr.maxKey)))
			want := reconstructVerify(pr)
			if got := pr.fullVerify(); got != want {
				t.Fatalf("%s #%d: fullVerify = %v, reconstruction = %v", kind.name, i, got, want)
			}
			if want {
				accepted++
			}
		}
		t.Logf("%s: %d of %d accepted by both", kind.name, accepted, perKind)
		if kind.name == "untouched" && accepted != perKind {
			t.Fatalf("clean ranks rejected")
		}
	}
}

// FuzzFullVerify ranks a small random key set (up to 256 key values) and
// corrupts the ranks: an offset added at one value, optionally a swap with
// the next. Both verifiers must agree, and accept uncorrupted ranks.
func FuzzFullVerify(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint8(4), uint16(3), int32(0), false)
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint8(4), uint16(3), int32(1), false)
	f.Add([]byte{7, 7, 7, 0}, uint8(3), uint16(6), int32(0), true)
	f.Add([]byte{}, uint8(0), uint16(0), int32(-1), false)
	f.Fuzz(func(t *testing.T, keys []byte, maxKeyLog2 uint8, pos uint16, delta int32, swap bool) {
		maxKey := int32(1) << (maxKeyLog2 % 9)
		pr := &problem{
			nKeys:  len(keys),
			maxKey: maxKey,
			keys:   make([]int32, len(keys)),
			buff2:  make([]int32, max(len(keys), int(maxKey))),
			ranks:  make([]int32, maxKey),
		}
		for i, k := range keys {
			pr.keys[i] = int32(k) % maxKey
		}
		pr.rankSerial()
		v := int(pos) % int(maxKey)
		pr.ranks[v] += delta
		if swap {
			w := min(v+1, int(maxKey)-1)
			pr.ranks[v], pr.ranks[w] = pr.ranks[w], pr.ranks[v]
		}
		want := reconstructVerify(pr)
		if got := pr.fullVerify(); got != want {
			t.Fatalf("fullVerify = %v, reconstruction = %v", got, want)
		}
		if delta == 0 && !swap && !want {
			t.Fatal("clean ranks rejected")
		}
	})
}
