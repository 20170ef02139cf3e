//go:build !race

// The race detector's instrumentation allocates, and its sync.Pool (which
// fmt draws on) drops items at random, so allocation figures are only
// meaningful without it.

package core

import (
	"runtime"
	"sort"
	"strings"
	"testing"
)

// The lowering writes each file's output once, into one buffer (emit.go),
// and generated text goes straight into it: expressions are printed through
// one reused buffer, and no syntax tree, string or statement list is built
// only to be printed or searched once. This is the front end's allocation
// budget, the twin of the runtime's zero-allocation fork path: the corpus
// fixtures, lowered one file at a time, must stay under a ceiling of bytes
// and allocations per file. The ceilings are this design's figures with
// Go 1.24 (≈12.7 KB and 247 allocations per file) plus about 5%, and lie
// below a 392-byte directive per pragma and an output buffer of four times
// the source plus 128 bytes per pragma (≈14.7 KB and 258), below printing
// the input to check it was gofmt-clean (≈16.7 KB and 305), itself below
// building generated expressions as trees and text as strings (≈19.5 KB
// and 376) and building each directive's text apart and copying it into
// its parent's (≈29 KB and 421). Allocation counts are deterministic, so a
// failure is a regression, not noise.
const (
	budgetBytesPerFile  = 13300
	budgetAllocsPerFile = 259
)

func TestLoweringAllocationBudget(t *testing.T) {
	var names []string
	fixtures := lowerFixtures(t)
	for name := range fixtures {
		if strings.HasPrefix(name, "corpus_") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	const runs = 20
	var bytes, allocs float64
	for _, name := range names {
		src, opts := fixtures[name], fixtureOptions(name)
		transform := func() {
			if _, err := Transform(src, opts); err != nil {
				t.Fatal(err)
			}
		}
		a := testing.AllocsPerRun(runs, transform)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range runs {
			transform()
		}
		runtime.ReadMemStats(&m1)
		b := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
		t.Logf("%-20s %4d B source: %6.0f B, %4.0f allocs", name, len(src), b, a)
		bytes += b
		allocs += a
	}
	bytes /= float64(len(names))
	allocs /= float64(len(names))
	t.Logf("per file: %.0f B (budget %d), %.0f allocs (budget %d)", bytes, budgetBytesPerFile, allocs, budgetAllocsPerFile)
	if bytes > budgetBytesPerFile || allocs > budgetAllocsPerFile {
		t.Fatalf("lowering allocates %.0f B and %.0f allocs per file; budget %d B and %d", bytes, allocs, budgetBytesPerFile, budgetAllocsPerFile)
	}
}
