package bench

import (
	"strings"
	"testing"

	"gomp/internal/npb"
)

func TestRunAllKernelFlavours(t *testing.T) {
	for _, kernel := range Kernels {
		for _, impl := range Impls {
			res, err := Run(kernel, impl, npb.ClassS, 2)
			if err != nil {
				t.Fatalf("%s/%s: %v", kernel, impl, err)
			}
			if !res.Verified {
				t.Fatalf("%s/%s failed verification", kernel, impl)
			}
			if res.Seconds < 0 {
				t.Fatalf("%s/%s negative time", kernel, impl)
			}
		}
	}
}

func TestRunRejectsUnknown(t *testing.T) {
	if _, err := Run("mg", "omp", npb.ClassS, 1); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	if _, err := Run("cg", "mpi", npb.ClassS, 1); err == nil {
		t.Fatal("unknown impl accepted")
	}
}

func TestSweepRendering(t *testing.T) {
	sw, err := RunSweep("is", npb.ClassS, []int{1, 2}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	table := sw.RuntimeTable()
	// The 2-thread row carries an oversubscription marker on hosts with a
	// single processor, so match both renderings.
	row2 := "| 2 |"
	if sw.Oversubscribed[2] {
		row2 = "| 2 * |"
	}
	for _, want := range []string{"Table III", "IS class S", "| 1 |", row2, "omp runtime"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	fig := sw.SpeedupFigure()
	for _, want := range []string{"Figure 5", "speedup", "ideal"} {
		if !strings.Contains(fig, want) {
			t.Errorf("figure missing %q:\n%s", want, fig)
		}
	}
	// Self-relative speedup at 1 thread is exactly 1.00 by construction.
	if !strings.Contains(fig, "| 1 | 1.00 | 1.00 | 1 |") {
		t.Errorf("1-thread speedup row malformed:\n%s", fig)
	}
}

func TestSweepThreadsSorted(t *testing.T) {
	sw, err := RunSweep("ep", npb.ClassS, []int{4, 1}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Threads[0] != 1 || sw.Threads[1] != 4 {
		t.Fatalf("threads not sorted: %v", sw.Threads)
	}
}

func TestDefaultThreadsShape(t *testing.T) {
	ths := DefaultThreads()
	if len(ths) == 0 || ths[0] != 1 {
		t.Fatalf("DefaultThreads = %v, must start at 1", ths)
	}
	for i := 1; i < len(ths); i++ {
		if ths[i] <= ths[i-1] {
			t.Fatalf("DefaultThreads not increasing: %v", ths)
		}
	}
}

func TestPaperThreadsMatchPaper(t *testing.T) {
	want := []int{1, 2, 16, 32, 64, 96, 128}
	if len(PaperThreads) != len(want) {
		t.Fatalf("PaperThreads = %v", PaperThreads)
	}
	for i := range want {
		if PaperThreads[i] != want[i] {
			t.Fatalf("PaperThreads = %v, want %v (Tables I–III)", PaperThreads, want)
		}
	}
}

// The blocked-LU acceptance bar: every parallel formulation factors the
// matrix bitwise identically to the serial blocked sweep (the dataflow is
// identical; dependences only reorder independent block operations).
func TestBlockedLUMatchesSerial(t *testing.T) {
	ref := NewLUMatrix()
	LUSerial(ref)
	for _, th := range []int{1, 2, 4} {
		a := NewLUMatrix()
		LUTaskwait(a, th)
		if d := LUMaxDiff(a, ref); d != 0 {
			t.Fatalf("taskwait LU at %d threads diverged: max diff %g", th, d)
		}
		a = NewLUMatrix()
		LUDAG(a, th)
		if d := LUMaxDiff(a, ref); d != 0 {
			t.Fatalf("dependence-DAG LU at %d threads diverged: max diff %g", th, d)
		}
	}
}

// The tiled-matmul verification contract: every formulation executes the
// identical floating-point chain per output cell, so equality is exact —
// including the fringe tiles that MMN % MMTile != 0 forces.
func TestMatmulFormulationsBitwiseEqual(t *testing.T) {
	if MMN%MMTile == 0 {
		t.Fatal("MMN must not divide by MMTile, or the fringe path goes untested")
	}
	a, b := NewMMPair()
	ref := make([]float64, MMN*MMN)
	MMNaive(ref, a, b)
	dst := make([]float64, MMN*MMN)
	MMTiled(dst, a, b)
	if d := MMMaxDiff(dst, ref); d != 0 {
		t.Fatalf("tiled diverges from naive by %g", d)
	}
	for _, th := range []int{1, 2, 4} {
		MMTiledParallel(dst, a, b, th)
		if d := MMMaxDiff(dst, ref); d != 0 {
			t.Fatalf("tiled+parallel (threads=%d) diverges from naive by %g", th, d)
		}
	}
}
