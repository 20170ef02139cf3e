package is

import (
	"encoding/binary"
	"hash/fnv"
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
