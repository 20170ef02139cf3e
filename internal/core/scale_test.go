package core

import (
	"fmt"
	"strings"
	"testing"
)

// scaledSource returns a file of n functions with seven directives each —
// a parallel region holding single, two worksharing loops, a barrier,
// master and critical.
func scaledSource(n int) []byte {
	var b strings.Builder
	b.WriteString("package p\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `
func region%d(data []float64, scale float64) (float64, int) {
	total := 0.0
	phases := 0
	//omp parallel firstprivate(scale)
	{
		//omp single
		{
			phases++
		}
		//omp for schedule(dynamic,4) nowait
		for i := 0; i < len(data); i++ {
			data[i] *= scale
		}
		//omp barrier
		//omp for reduction(+:total)
		for i := 0; i < len(data); i++ {
			total += data[i]
		}
		//omp master
		{
			//omp critical
			{
				phases += %d
			}
		}
	}
	return total, phases
}
`, i, i)
	}
	return []byte(b.String())
}

// The cost of a file must grow with its size, not with size × directives:
// the lowering parses once and never rescans. Allocation counts are
// deterministic, so the bound is a tripwire, not a timing.
func TestTransformAllocsScaleLinearly(t *testing.T) {
	allocs := func(n int) float64 {
		src := scaledSource(n)
		return testing.AllocsPerRun(5, func() {
			if _, err := Transform(src, Options{Filename: "scaled.go"}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4), allocs(16)
	if ratio := large / small; ratio >= 5 {
		t.Fatalf("4× the directives cost %.1f× the allocations (%.0f → %.0f); want < 5×", ratio, small, large)
	} else {
		t.Logf("4× the directives cost %.2f× the allocations (%.0f → %.0f)", ratio, small, large)
	}
}

// BenchmarkTransform runs the lowering fixtures through Transform: the
// front end's cost per file and, as us/directive, per pragma.
func BenchmarkTransform(b *testing.B) {
	type input struct {
		name string
		src  []byte
	}
	var inputs []input
	directives := 0
	for name, src := range lowerFixtures(b) {
		if strings.HasPrefix(name, "err_") {
			continue
		}
		infos, err := Inspect(src, Options{Filename: name})
		if err != nil {
			b.Fatal(err)
		}
		directives += len(infos)
		inputs = append(inputs, input{name, src})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			if _, err := Transform(in.src, fixtureOptions(in.name)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*directives), "us/directive")
}
