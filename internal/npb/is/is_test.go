package is

import (
	"runtime"
	"sync"
	"testing"

	"gomp/internal/npb"
	"gomp/omp"
)

var (
	serialOnce sync.Once
	serialS    *Stats
	serialErr  error
)

func serialClassS(t *testing.T) *Stats {
	t.Helper()
	serialOnce.Do(func() { serialS, serialErr = RunSerial(npb.ClassS) })
	if serialErr != nil {
		t.Fatal(serialErr)
	}
	return serialS
}

func TestSerialClassSVerifies(t *testing.T) {
	st := serialClassS(t)
	if !Verify(st) {
		t.Fatal("class S full verification failed")
	}
	if st.Keys != 1<<16 || st.MaxKey != 1<<11 {
		t.Fatalf("class S geometry: keys=%d maxKey=%d", st.Keys, st.MaxKey)
	}
}

// Key generation must be identical however the range is partitioned — the
// seed-jump property parallel generation relies on.
func TestKeyGenerationPartitionInvariant(t *testing.T) {
	whole, _ := newProblem(npb.ClassS)
	whole.genKeys(0, whole.nKeys)
	pieces, _ := newProblem(npb.ClassS)
	for lo := 0; lo < pieces.nKeys; lo += 7919 {
		hi := lo + 7919
		if hi > pieces.nKeys {
			hi = pieces.nKeys
		}
		pieces.genKeys(lo, hi)
	}
	for i := range whole.keys {
		if whole.keys[i] != pieces.keys[i] {
			t.Fatalf("key %d differs: %d vs %d", i, whole.keys[i], pieces.keys[i])
		}
	}
}

func TestKeysWithinRange(t *testing.T) {
	pr, _ := newProblem(npb.ClassS)
	pr.genKeys(0, pr.nKeys)
	for i, k := range pr.keys {
		if k < 0 || k >= pr.maxKey {
			t.Fatalf("key[%d] = %d outside [0, %d)", i, k, pr.maxKey)
		}
	}
}

// The cumulative rank array must agree exactly (integer arithmetic) across
// all three flavours.
func TestParallelMatchesSerial(t *testing.T) {
	st := serialClassS(t)
	for _, threads := range []int{1, 2, 4, 7} {
		par, err := RunParallel(npb.ClassS, threads)
		if err != nil {
			t.Fatal(err)
		}
		if !Verify(par) {
			t.Fatalf("threads=%d: full verification failed", threads)
		}
		if par.RankHash != st.RankHash {
			t.Fatalf("threads=%d: rank hash %016x != serial %016x", threads, par.RankHash, st.RankHash)
		}
	}
}

// A team narrower than requested: rankOMP's histograms and block-total
// slots are sized for the requested count, so words past the granted
// team's are whatever the last user left there. The scan must read the
// granted team's histograms only, and the offsets its slots only.
func TestParallelTeamNarrowerThanRequested(t *testing.T) {
	st := serialClassS(t)
	defer omp.SetMaxActiveLevels(omp.GetMaxActiveLevels())
	omp.SetMaxActiveLevels(0) // every region runs on a team of one
	par, err := RunParallel(npb.ClassS, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(par) || par.RankHash != st.RankHash {
		t.Fatalf("team of one for 4 requested: verified=%v hash %016x, serial %016x", Verify(par), par.RankHash, st.RankHash)
	}

	pr, _ := newProblem(npb.ClassS)
	pr.genKeys(0, pr.nKeys)
	pr.rankSerial()
	want := pr.rankHash()
	for i := range pr.buff2 {
		pr.buff2[i] = 12345 // stale histogram words
	}
	totals := make([]padI32, 4)
	for i := range totals {
		totals[i].v = 6789 // stale block totals
	}
	pr.rankOMP(pr.histograms(4), totals, 4)
	if got := pr.rankHash(); got != want {
		t.Fatalf("team of one over stale buff2 and slots: rank hash %016x, serial %016x", got, want)
	}
}

// A cancellable team hands each thread its static block in sub-chunks
// (about 32 of them), so rankOMP's block scan must carry its running total
// from one chunk to the next.
func TestRankCancellableTeamMatchesSerial(t *testing.T) {
	defer omp.SetCancellation(omp.GetCancellation())
	for _, class := range []npb.Class{npb.ClassS, npb.ClassW} {
		omp.SetCancellation(false)
		ser, err := RunSerial(class)
		if err != nil {
			t.Fatal(err)
		}
		omp.SetCancellation(true)
		for _, threads := range []int{1, 2, 3, 4, 7} {
			par, err := RunParallel(class, threads)
			if err != nil {
				t.Fatal(err)
			}
			if !Verify(par) || par.RankHash != ser.RankHash {
				t.Errorf("class %v threads=%d, cancellable team: verified=%v hash %016x, serial %016x",
					class, threads, Verify(par), par.RankHash, ser.RankHash)
			}
		}
	}
}

// Histograms that do not fit in buff2 (33 threads × 2^11 key values > 2^16
// keys) take the allocating path and still rank exactly.
func TestParallelHistogramsOutgrowBuff2(t *testing.T) {
	st := serialClassS(t)
	const threads = 33
	pr, _ := newProblem(npb.ClassS)
	if h := pr.histograms(threads); &h[0] == &pr.buff2[0] {
		t.Fatalf("%d histograms of %d words share buff2 (%d words)", threads, pr.maxKey, len(pr.buff2))
	}
	par, err := RunParallel(npb.ClassS, threads)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(par) || par.RankHash != st.RankHash {
		t.Fatalf("threads=%d: verified=%v hash %016x, serial %016x", threads, Verify(par), par.RankHash, st.RankHash)
	}
}

// Once warm, a rank call allocates only its region closure: the histograms
// live in buff2 (or one per-run slice), never on the heap per call.
func TestRankOMPAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, class := range []npb.Class{npb.ClassS, npb.ClassW} {
		pr, _ := newProblem(class)
		pr.genKeys(0, pr.nKeys)
		for _, threads := range []int{1, 2, 4} {
			hist := pr.histograms(threads)
			if &hist[0] != &pr.buff2[0] {
				t.Fatalf("class %v threads=%d: histograms fit in buff2 but do not share it", class, threads)
			}
			totals := make([]padI32, threads)
			rank := func() { pr.rankOMP(hist, totals, threads) }
			rank() // spawn workers, prime pools
			allocs := testing.AllocsPerRun(5, rank)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const calls = 5
			for i := 0; i < calls; i++ {
				rank()
			}
			runtime.ReadMemStats(&after)
			bytes := (after.TotalAlloc - before.TotalAlloc) / calls
			t.Logf("class %v threads=%d: %.0f allocs, %d B per rank", class, threads, allocs, bytes)
			if allocs > 1 || bytes >= 1024 {
				t.Errorf("class %v threads=%d: %.1f allocs and %d B per rank, want ≤ 1 and < 1 KiB", class, threads, allocs, bytes)
			}
		}
	}
}

// A whole run allocates its keys, its ranks and the scratch its flavour
// uses — maxKey words per histogram, one for the serial flavour — and at
// most 64 KiB besides. Scratch of nKeys words, which only the goroutine
// baseline needs, fails the bound.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, tc := range []struct {
		name    string
		threads int
		run     func() (*Stats, error)
	}{
		{"RunSerial", 1, func() (*Stats, error) { return RunSerial(npb.ClassW) }},
		{"RunParallel/T=2", 2, func() (*Stats, error) { return RunParallel(npb.ClassW, 2) }},
	} {
		if _, err := tc.run(); err != nil { // spawn workers, prime pools
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := tc.run()
		runtime.ReadMemStats(&after)
		if err != nil || !Verify(st) {
			t.Fatalf("%s: err=%v verified=%v", tc.name, err, st != nil && Verify(st))
		}
		p := classes[npb.ClassW]
		nKeys, maxKey := uint64(1)<<p.totalKeysLog2, uint64(1)<<p.maxKeyLog2
		budget := 4*(nKeys+maxKey+uint64(tc.threads)*maxKey) + 64<<10
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d B, budget %d B", tc.name, bytes, budget)
		if bytes > budget {
			t.Errorf("%s: %d B per class W run, want ≤ %d", tc.name, bytes, budget)
		}
	}
}

func TestGoroutinesMatchSerial(t *testing.T) {
	st := serialClassS(t)
	gr, err := RunGoroutines(npb.ClassS, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(gr) {
		t.Fatal("goroutine flavour failed verification")
	}
	if gr.RankHash != st.RankHash {
		t.Fatalf("goroutine rank hash %016x != serial %016x", gr.RankHash, st.RankHash)
	}
}

// The rank array semantics: ranks[v] counts keys ≤ v, so the last entry is
// the key count and the array is monotone.
func TestRankArraySemantics(t *testing.T) {
	pr, _ := newProblem(npb.ClassS)
	pr.genKeys(0, pr.nKeys)
	pr.rankSerial()
	if got := pr.ranks[pr.maxKey-1]; int(got) != pr.nKeys {
		t.Fatalf("ranks[last] = %d, want %d", got, pr.nKeys)
	}
	for v := 1; v < int(pr.maxKey); v++ {
		if pr.ranks[v] < pr.ranks[v-1] {
			t.Fatalf("ranks not monotone at %d", v)
		}
	}
}

// NPB's per-iteration twiddle must change the ranks between iterations
// (that is its purpose: defeating loop-invariant hoisting).
func TestIterationTwiddleChangesRanks(t *testing.T) {
	pr, _ := newProblem(npb.ClassS)
	pr.genKeys(0, pr.nKeys)
	pr.prepareIteration(1)
	pr.rankSerial()
	h1 := pr.rankHash()
	pr.prepareIteration(2)
	pr.rankSerial()
	h2 := pr.rankHash()
	if h1 == h2 {
		t.Fatal("ranks identical across iterations; twiddle ineffective")
	}
}

// Ranks a faulty runtime corrupted must fail verification, and never
// crash the verifier: a cumulative count past the key count, or below
// zero, would place keys outside the reconstruction.
func TestFullVerifyCatchesCorruption(t *testing.T) {
	ranked := func() *problem {
		pr, _ := newProblem(npb.ClassS)
		pr.genKeys(0, pr.nKeys)
		pr.rankSerial()
		return pr
	}
	if !ranked().fullVerify() {
		t.Fatal("clean ranks rejected")
	}
	for _, corrupt := range []struct {
		name string
		f    func(pr *problem)
	}{
		{"one more", func(pr *problem) { pr.ranks[pr.maxKey/2]++ }},
		{"past nKeys", func(pr *problem) { pr.ranks[pr.maxKey/2] = int32(pr.nKeys) + 5 }},
		{"negative", func(pr *problem) { pr.ranks[pr.maxKey/2] = -7 }},
		{"last short", func(pr *problem) { pr.ranks[pr.maxKey-1]-- }},
		{"decreasing", func(pr *problem) {
			pr.ranks[pr.maxKey/2], pr.ranks[pr.maxKey/2+1] = pr.ranks[pr.maxKey/2+1], pr.ranks[pr.maxKey/2]
		}},
	} {
		t.Run(corrupt.name, func(t *testing.T) {
			pr := ranked()
			corrupt.f(pr)
			if pr.fullVerify() {
				t.Fatal("corrupted ranks accepted")
			}
		})
	}
}

func TestUnsupportedClass(t *testing.T) {
	if _, err := RunSerial(npb.Class('D')); err == nil {
		t.Fatal("class D accepted")
	}
}

func TestResultAndMops(t *testing.T) {
	st := serialClassS(t)
	r := st.Result("serial")
	if !r.Verified || r.Name != "IS" || r.Iters != maxIterations {
		t.Fatalf("result = %+v", r)
	}
	if st.Mops() <= 0 {
		t.Fatal("Mops <= 0")
	}
}
