package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestContainsPragma(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"package p\n\nfunc f() {\n\t//omp parallel for\n\tfor {}\n}\n", true},
		{"package p\n\n//$omp barrier\n", true},
		{"package p\n\n//#pragma omp parallel\n", true},
		{"package p\n\t//omp barrier", true}, // no trailing newline, bare directive
		{"package p\n\nfunc f() {}\n", false},
		{"package p\n// omp parallel (spaced sentinel is not a pragma)\n", false},
		{"package p\n//ompx parallel\n", false},
	}
	for _, c := range cases {
		if got := ContainsPragma([]byte(c.src)); got != c.want {
			t.Errorf("ContainsPragma(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

// preprocess is Transform's output alone, the form most tests compare.
func preprocess(src []byte, opts Options) ([]byte, error) {
	res, err := Transform(src, opts)
	return res.Output, err
}

// Transform reads Changed from the lowering; it must agree with comparing
// the preprocessed bytes with the input: a pragma lowered or a function
// instrumented changes the file, while a pragma-free file, one whose
// "pragma" is string-literal text, and a profiled file with nothing to
// instrument come back as they went in.
func TestTransformMatchesPreprocess(t *testing.T) {
	pragma := "package p\n\nfunc f(a []int) {\n\t//omp parallel for\n\tfor i := 0; i < len(a); i++ {\n\t\ta[i] = i\n\t}\n}\n"
	for _, c := range []struct {
		src     string
		profile bool
		changed bool
	}{
		{pragma, false, true},
		{pragma, true, true},
		{"package main\n\nfunc main() {}\n", true, true},
		{"package p\n\nfunc f() {}\n", false, false},
		{"package p\n\nfunc f() {}\n", true, false},
		{"package p\n\nconst doc = `\n//omp parallel for\n`\n", false, false},
	} {
		res, err := Transform([]byte(c.src), Options{Filename: "t.go", Profile: c.profile})
		if err != nil {
			t.Fatal(err)
		}
		if res.Changed != c.changed || res.Changed == bytes.Equal(res.Output, []byte(c.src)) {
			t.Errorf("Transform(%q, profile=%v): Changed = %v, want %v (output equal to input: %v)",
				c.src, c.profile, res.Changed, c.changed, bytes.Equal(res.Output, []byte(c.src)))
		}
	}
}

// The build driver fans Transform out across a worker team, so the
// entry point must be callable concurrently with itself: every call
// builds its own parser, AST and encoding state. Run a mixed workload
// across goroutines and require bit-identical agreement with the
// serial result (the race detector covers the rest when CI runs this
// package under -race).
func TestTransformConcurrent(t *testing.T) {
	inputs := make([][]byte, 8)
	wants := make([][]byte, len(inputs))
	for i := range inputs {
		inputs[i] = []byte(fmt.Sprintf(`package p

func f%d(a []float64, n int) float64 {
	s := 0.0
	//omp parallel for reduction(+:s) schedule(dynamic,%d) num_threads(4)
	for i := 0; i < n; i++ {
		s += a[i]
	}
	//omp parallel
	{
		//omp critical
		{
			s *= 2
		}
	}
	return s
}
`, i, i+1))
		out, err := Transform(inputs[i], Options{Filename: fmt.Sprintf("f%d.go", i)})
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = out.Output
	}
	const workers, rounds = 16, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(inputs)
				out, err := Transform(inputs[i], Options{Filename: fmt.Sprintf("f%d.go", i)})
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(out.Output, wants[i]) {
					errs <- fmt.Errorf("worker %d round %d: output diverged for input %d", w, r, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// AppendTransform writes exactly Transform's output after dst's bytes,
// whatever dst's spare capacity holds and however much of it there is; with
// room for the output it writes into dst's own array, which is what lets
// the driver reuse one buffer from file to file.
func TestAppendTransformMatchesTransform(t *testing.T) {
	prefix := []byte("// bytes a caller already holds\n")
	for name, src := range lowerFixtures(t) {
		opts := fixtureOptions(name)
		want, wantErr := Transform(src, opts)
		for _, room := range []int{len(want.Output) / 2, 2*len(want.Output) + 64} {
			buf := bytes.Repeat([]byte{0xA5}, len(prefix)+room) // garbage past dst's end
			dst := append(buf[:0], prefix...)
			got, err := AppendTransform(dst, src, opts)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Errorf("%s, %d spare: error %v, Transform's %v", name, room, err, wantErr)
				continue
			}
			if err != nil {
				continue
			}
			if got.Changed != want.Changed || !bytes.Equal(got.Output, append(append([]byte(nil), prefix...), want.Output...)) {
				t.Errorf("%s, %d spare: AppendTransform (changed %v) differs from dst + Transform (changed %v):\n%s", name, room, got.Changed, want.Changed, got.Output)
			}
			if fits := len(prefix)+len(want.Output) <= cap(dst); fits && &got.Output[0] != &dst[0] {
				t.Errorf("%s, %d spare: the output fits in dst but was written elsewhere", name, room)
			}
		}
	}
}
