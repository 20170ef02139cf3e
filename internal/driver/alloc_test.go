//go:build !race

// The race detector's instrumentation allocates, so allocation figures are
// only meaningful without it.

package driver

import (
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
)

// A cold mirror build allocates for what it lowers, not for deciding what
// to build or where to write: a file needs go/build's reader only when its
// name or header gives MatchFile something to decide (plainFile), each
// output directory is created once per pass, and each output with one
// create, and each worker reads and lowers its files into buffers it
// reuses. The ceilings are this design's figures for a cold -outdir build
// of cmd/gompcc/testdata/dir with Go 1.24 (≈6.86 KB and 95 allocations per
// file) plus about 5%; fresh read and output buffers per file and a
// 392-byte directive per pragma read ≈7.22 KB and 101, writing each output
// through a temporary file and a rename ≈7.95 KB and 111, printing each
// transformed input to check it was gofmt-clean ≈8.8 KB and 129, and
// running MatchFile on every file and MkdirAll per output ≈13.9 KB and
// 151. A build runs at Jobs=1, and the
// figure is the least of several builds: a garbage collection empties the
// sync.Pools that fmt and os draw on, and the build after it refills them.
const (
	driverBytesPerFile  = 7200
	driverAllocsPerFile = 100
)

func TestColdBuildAllocationBudget(t *testing.T) {
	module := filepath.Join("..", "..", "cmd", "gompcc", "testdata", "dir")
	tmp := t.TempDir()
	bytes, allocs := ^uint64(0), ^uint64(0)
	files := 0
	for i := range 12 {
		out := filepath.Join(tmp, strconv.Itoa(i)) // every build is cold: a fresh tree
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d, err := New(Config{Module: module, OutDir: out, Jobs: 1, CacheDir: CacheOff})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := d.Run()
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Err() != nil || rep.Transformed == 0 {
			t.Fatalf("driver reports %q", rep.Summary())
		}
		if i > 0 { // the first build initialises go/build and the runtime
			bytes, allocs = min(bytes, m1.TotalAlloc-m0.TotalAlloc), min(allocs, m1.Mallocs-m0.Mallocs)
		}
		files = rep.Files
	}
	b, a := float64(bytes)/float64(files), float64(allocs)/float64(files)
	t.Logf("per file: %.0f B (budget %d), %.0f allocs (budget %d)", b, driverBytesPerFile, a, driverAllocsPerFile)
	if b > driverBytesPerFile || a > driverAllocsPerFile {
		t.Fatalf("a cold build allocates %.0f B and %.0f allocs per file; budget %d B and %d", b, a, driverBytesPerFile, driverAllocsPerFile)
	}
}
