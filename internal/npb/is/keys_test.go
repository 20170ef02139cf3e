package is

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"gomp/internal/npb"
)

// keyDigests are FNV-64a digests of the full create_seq key stream of each
// class (keys as little-endian int32), recorded with the double-precision
// generator NPB's portable randlc defines. A generator change that moves a
// single key fails here, before the rank or its verification can mask it.
var keyDigests = map[npb.Class]uint64{
	npb.ClassS: 0xfda3c49741c88ed9,
	npb.ClassW: 0xb3d1378eb46c774b,
}

func keyDigest(keys []int32) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 4*len(keys))
	for _, k := range keys {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
	}
	h.Write(buf)
	return h.Sum64()
}

// The digest must hold for the whole range generated at once and for the
// range cut into 2, 3 and 7 blocks, each generated from its own seed jump.
func TestKeyStreamDigest(t *testing.T) {
	for class, want := range keyDigests {
		for _, blocks := range []int{1, 2, 3, 7} {
			pr, err := newProblem(class)
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < blocks; b++ {
				pr.genKeys(b*pr.nKeys/blocks, (b+1)*pr.nKeys/blocks)
			}
			if got := keyDigest(pr.keys); got != want {
				t.Errorf("class %v in %d blocks: key digest %016x, want %016x", class, blocks, got, want)
			}
		}
	}
}

// rankHashes are the RankHash of a serial run of each class, recorded with
// NPB's reconstruct-and-scan verification beside it. A change to key
// generation, ranking or the hash that moves a single rank fails here.
var rankHashes = map[npb.Class]uint64{
	npb.ClassS: 0x217e7995027045a7,
	npb.ClassW: 0x7a5317282c32785f,
}

func TestRankHashDigest(t *testing.T) {
	for class, want := range rankHashes {
		st, err := RunSerial(class)
		if err != nil {
			t.Fatal(err)
		}
		if !Verify(st) || st.RankHash != want {
			t.Errorf("class %v: verified=%v rank hash %016x, want %016x", class, Verify(st), st.RankHash, want)
		}
	}
}

// oracleKeys is create_seq drawn from one stream, four draws per key, as
// NPB writes it: the oracle genKeys' four lanes must reproduce.
func oracleKeys(pr *problem, lo, hi int) []int32 {
	s := npb.NewStream(npb.SkipAhead(npb.DefaultSeed, npb.DefaultMult, int64(4*lo)), npb.DefaultMult)
	shift := 48 - pr.params.maxKeyLog2
	keys := make([]int32, hi-lo)
	for i := range keys {
		sum := s.Next() + s.Next() + s.Next() + s.Next()
		keys[i] = int32(sum >> shift)
	}
	return keys
}

// checkWindow generates keys[lo:hi] and compares it word for word with the
// oracle. The words next to the window are poisoned first and must keep
// their poison.
func checkWindow(t *testing.T, pr *problem, lo, hi int) {
	t.Helper()
	const poison, guard = -1, 8
	around := pr.keys[max(lo-guard, 0):min(hi+guard, pr.nKeys)]
	for i := range around {
		around[i] = poison
	}
	pr.genKeys(lo, hi)
	want := oracleKeys(pr, lo, hi)
	for i := max(lo-guard, 0); i < min(hi+guard, pr.nKeys); i++ {
		switch k := pr.keys[i]; {
		case i < lo || i >= hi:
			if k != poison {
				t.Fatalf("%d keys, window [%d, %d): key %d outside it written (%d)", pr.nKeys, lo, hi, i, k)
			}
		case k != want[i-lo]:
			t.Fatalf("%d keys, window [%d, %d): key %d = %d, oracle %d", pr.nKeys, lo, hi, i, k, want[i-lo])
		}
	}
}

// Seeded windows, the whole range and the edge cases must match the
// single-stream oracle at classes S and W.
func TestGenKeysMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 14))
	for _, class := range []npb.Class{npb.ClassS, npb.ClassW} {
		pr, err := newProblem(class)
		if err != nil {
			t.Fatal(err)
		}
		n := pr.nKeys
		for _, w := range [][2]int{{0, n}, {0, 0}, {0, 1}, {n - 1, n}, {n, n}, {1, 5}} {
			checkWindow(t, pr, w[0], w[1])
		}
		for range 200 {
			lo := rng.IntN(n + 1)
			checkWindow(t, pr, lo, lo+rng.IntN(min(n-lo, 4096)+1))
		}
	}
}

// FuzzGenKeys draws a window [start, start+length) of class S or W keys,
// clipped to the key range, and checks it against the oracle.
func FuzzGenKeys(f *testing.F) {
	f.Add(uint32(0), uint16(16), false)
	f.Add(uint32(65535), uint16(1), false)
	f.Add(uint32(1<<20-3), uint16(7), true)
	f.Add(uint32(12345), uint16(0), true)
	problems := map[bool]*problem{}
	for _, wide := range []bool{false, true} {
		class := npb.ClassS
		if wide {
			class = npb.ClassW
		}
		pr, err := newProblem(class)
		if err != nil {
			f.Fatal(err)
		}
		problems[wide] = pr
	}
	f.Fuzz(func(t *testing.T, start uint32, length uint16, wide bool) {
		pr := problems[wide]
		lo := int(start) % (pr.nKeys + 1)
		checkWindow(t, pr, lo, min(lo+int(length), pr.nKeys))
	})
}
