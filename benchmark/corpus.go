package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
)

// The synthetic module gompcc_build compiles: seeded, gofmt-clean Go
// source annotated with the directive mix the front end supports —
// parallel-for × schedule kinds and modifiers × reduction × collapse ×
// tile/unroll × task/depend × the synchronisation constructs. Six of the
// files carry no pragma, so the crawler's ContainsPragma pre-filter and
// the mirror layout's copy path are exercised as a real tree would.

// corpusFile is one generated source file.
type corpusFile struct {
	rel        string // module-relative, slash separated
	src        []byte
	directives int // pragma lines in src
}

// corpus is the generated module.
type corpus struct {
	files      []corpusFile
	pragma     int // files with at least one directive
	directives int
	bytes      int // total source bytes
}

// 64 files of two functions: core.Transform re-parses the file once per
// directive (about 0.4 ms each), so this is the module size whose cold
// build at two threads lands inside the 40-150 ms solve window.
const (
	corpusPackages = 8
	corpusPerPkg   = 8
	corpusPlain    = 6 // files without a pragma
)

var (
	schedKinds = []string{"static", "static,%d", "dynamic,%d", "guided,%d", "nonmonotonic:dynamic,%d", "monotonic:dynamic,%d", "monotonic:guided,%d", "auto", "runtime"}
	redOps     = []struct{ op, expr string }{{"+", "s += x"}, {"*", "s *= 1 + x/1e9"}, {"max", "if x > s {\n\t\t\ts = x\n\t\t}"}, {"min", "if x < s {\n\t\t\ts = x\n\t\t}"}}
)

func sched(r *rand.Rand) string {
	k := schedKinds[r.IntN(len(schedKinds))]
	if strings.Contains(k, "%d") {
		return fmt.Sprintf(k, 1+r.IntN(64))
	}
	return k
}

// Each template returns one function and the number of directives in it.
// id makes the function name unique inside its package.
var templates = []func(r *rand.Rand, id int) (string, int){
	// parallel for × schedule × reduction
	func(r *rand.Rand, id int) (string, int) {
		op := redOps[r.IntN(len(redOps))]
		return fmt.Sprintf(`func reduce%d(a []float64) float64 {
	s := a[0]
	//omp parallel for reduction(%s:s) schedule(%s)
	for i := 0; i < len(a); i++ {
		x := a[i] * %d
		%s
	}
	return s
}
`, id, op.op, sched(r), 1+r.IntN(9), op.expr), 1
	},
	// parallel for collapse(2) × schedule
	func(r *rand.Rand, id int) (string, int) {
		return fmt.Sprintf(`func stencil%d(g []float64, n, m int) {
	//omp parallel for collapse(2) schedule(%s)
	for i := 1; i < n-1; i++ {
		for j := 1; j < m-1; j++ {
			g[i*m+j] = 0.25 * (g[(i-1)*m+j] + g[(i+1)*m+j] + g[i*m+j-1] + g[i*m+j+1]) * %d
		}
	}
}
`, id, sched(r), 1+r.IntN(5)), 1
	},
	// parallel for collapse(2) stacked on tile
	func(r *rand.Rand, id int) (string, int) {
		return fmt.Sprintf(`func matmul%d(c, a, b []float64, n int) {
	//omp parallel for collapse(2)
	//omp tile sizes(%d,%d)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			for k := 0; k < n; k++ {
				sum += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = sum
		}
	}
}
`, id, 4<<r.IntN(4), 4<<r.IntN(4)), 2
	},
	// unroll partial and a one-dimensional tile, serial loop transformations
	func(r *rand.Rand, id int) (string, int) {
		return fmt.Sprintf(`func transform%d(v []int) int {
	s := 0
	//omp unroll partial(%d)
	for i := 0; i < len(v); i++ {
		s += v[i] * v[i]
	}
	//omp tile sizes(%d)
	for i := 0; i < len(v); i++ {
		v[i] += %d
	}
	return s
}
`, id, 2+r.IntN(7), 8<<r.IntN(4), r.IntN(100)), 2
	},
	// parallel region: single, for nowait, barrier, for reduction, master, critical
	func(r *rand.Rand, id int) (string, int) {
		return fmt.Sprintf(`func region%d(data []float64, scale float64) (float64, int) {
	total := 0.0
	phases := 0
	//omp parallel firstprivate(scale)
	{
		//omp single
		{
			phases++
		}
		//omp for schedule(%s) nowait
		for i := 0; i < len(data); i++ {
			data[i] *= scale
		}
		//omp barrier
		//omp for reduction(+:total) schedule(%s)
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
`, id, sched(r), sched(r), 1+r.IntN(9)), 7
	},
	// task depend chain under parallel/single
	func(r *rand.Rand, id int) (string, int) {
		return fmt.Sprintf(`func chain%d(seed int) int {
	var a, b, c int
	//omp parallel num_threads(%d)
	{
		//omp single
		{
			//omp task depend(out:a)
			{
				a = seed + %d
			}
			//omp task depend(in:a) depend(out:b) priority(%d)
			{
				b = a * 2
			}
			//omp task depend(in:a,b) depend(out:c)
			{
				c = a + b
			}
			//omp taskwait
		}
	}
	return c
}
`, id, 2+r.IntN(3), r.IntN(1000), r.IntN(4)), 6
	},
	// taskloop with an atomic update
	func(r *rand.Rand, id int) (string, int) {
		return fmt.Sprintf(`func sweep%d(v []int) int {
	hits := 0
	//omp parallel
	{
		//omp single
		{
			//omp taskloop grainsize(%d)
			for i := 0; i < len(v); i++ {
				if v[i]%%%d == 0 {
					//omp atomic
					hits++
				}
			}
		}
	}
	return hits
}
`, id, 1+r.IntN(64), 2+r.IntN(7)), 4
	},
	// sections
	func(r *rand.Rand, id int) (string, int) {
		return fmt.Sprintf(`func split%d(x, y []float64) {
	//omp parallel num_threads(2)
	{
		//omp sections
		{
			//omp section
			{
				for i := range x {
					x[i] += %d
				}
			}
			//omp section
			{
				for i := range y {
					y[i] -= %d
				}
			}
		}
	}
}
`, id, r.IntN(50), r.IntN(50)), 4
	},
}

// plainFunc is the body of the pragma-free files.
func plainFunc(r *rand.Rand, id int) string {
	return fmt.Sprintf(`func helper%d(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * %d
	}
	return s
}
`, id, 1+r.IntN(9))
}

// genCorpus builds the module from the seed alone: same seed, same bytes.
// Every seed yields the same number of plain files and the same number of
// functions from each template, two per pragma-bearing file, so that the
// work a build takes does not depend on the seed; the seed decides which
// functions share a file, their order, and every clause argument.
func genCorpus(seed uint64) *corpus {
	r := rand.New(rand.NewPCG(seed, 0x636f72707573)) // "corpus"
	const nFiles = corpusPackages * corpusPerPkg
	plain := make([]bool, nFiles)
	for i := 0; i < corpusPlain; i++ {
		plain[i] = true
	}
	r.Shuffle(nFiles, func(i, j int) { plain[i], plain[j] = plain[j], plain[i] })
	kinds := make([]int, 2*(nFiles-corpusPlain))
	for i := range kinds {
		kinds[i] = i % len(templates)
	}
	r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	c := &corpus{}
	for n := 0; n < nFiles; n++ {
		var b strings.Builder
		fmt.Fprintf(&b, "package pkg%02d\n", n/corpusPerPkg)
		dirs := 0
		for fn := 0; fn < 2; fn++ {
			b.WriteString("\n")
			id := n%corpusPerPkg*100 + fn
			if plain[n] {
				b.WriteString(plainFunc(r, id))
				continue
			}
			src, d := templates[kinds[0]](r, id)
			kinds = kinds[1:]
			b.WriteString(src)
			dirs += d
		}
		file := corpusFile{
			rel:        fmt.Sprintf("pkg%02d/file%02d.go", n/corpusPerPkg, n%corpusPerPkg),
			src:        []byte(b.String()),
			directives: dirs,
		}
		c.files = append(c.files, file)
		c.bytes += len(file.src)
		c.directives += dirs
		if dirs > 0 {
			c.pragma++
		}
	}
	return c
}

// write materialises the module under dir, with a go.mod that resolves
// the generated code's gomp/omp import to the checkout at repoRoot.
func (c *corpus) write(dir, repoRoot string) error {
	gomod := fmt.Sprintf("module gencorpus\n\ngo 1.24\n\nrequire gomp v0.0.0\n\nreplace gomp => %s\n", repoRoot)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		return err
	}
	for _, f := range c.files {
		path := filepath.Join(dir, filepath.FromSlash(f.rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, f.src, 0o644); err != nil {
			return err
		}
	}
	return nil
}
