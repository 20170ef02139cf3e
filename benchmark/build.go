package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"gomp/internal/core"
	"gomp/internal/driver"
	"gomp/omp"
)

// gompcc_build: the compiler half of the paper. A solve is one cold build
// of the generated module: crawl, transform every pragma-bearing file,
// write the mirror tree. The runtime only carries the driver's own
// fan-out, so a kmp optimisation must leave this workload unchanged.

type buildInstance struct {
	env     *runEnv
	c       *corpus
	src     string            // the generated module on disk
	out     [nFlavours]string // where the omp and serial flavours write
	rep     *driver.Report    // of the last omp solve
	made    int64             // output bytes of the last serial solve
	printed [][]byte          // what the last baseline solve printed, per file
	// first is the digest of each flavour's first output tree; every later
	// solve must reproduce it, and deepVerify ties it to the references.
	first [nFlavours][]byte
}

func genBuild(env *runEnv, seed uint64) (instance, error) {
	env.builds++ // a directory of its own for every set-up
	dir := filepath.Join(env.scratch, fmt.Sprintf("build%d", env.builds))
	b := &buildInstance{env: env, c: genCorpus(seed), src: filepath.Join(dir, "src")}
	for f := range b.out {
		b.out[f] = filepath.Join(dir, "out-"+flavourNames[f])
	}
	return b, b.c.write(b.src, env.root)
}

func (b *buildInstance) close() { os.RemoveAll(filepath.Dir(b.src)) }

func (b *buildInstance) solve(flavour, threads int) (float64, error) {
	if flavour == fBaseline {
		return b.baseline(threads)
	}
	out := b.out[flavour]
	if err := os.RemoveAll(out); err != nil {
		return 0, err
	}
	var err error
	start := omp.GetWtime()
	if flavour == fOmp {
		b.rep, err = b.driverRun(out, threads)
	} else {
		err = b.serial(out)
	}
	return omp.GetWtime() - start, err
}

func (b *buildInstance) driverRun(out string, jobs int) (*driver.Report, error) {
	defer b.env.tr.span("driver.run")()
	d, err := driver.New(driver.Config{Module: b.src, OutDir: out, Jobs: jobs, CacheDir: driver.CacheOff})
	if err != nil {
		return nil, err
	}
	rep, err := d.Run()
	if err == nil {
		err = rep.Err()
	}
	return rep, err
}

// serial is the build without the driver: one loop, one core.Transform
// per pragma-bearing file, plain writes.
func (b *buildInstance) serial(out string) error {
	b.made = 0
	for _, f := range b.c.files {
		src, err := os.ReadFile(filepath.Join(b.src, f.rel))
		if err != nil {
			return err
		}
		if core.ContainsPragma(src) {
			end := b.env.tr.span("core.transform")
			tr, err := core.Transform(src, core.Options{Filename: f.rel})
			end()
			if err != nil {
				return err
			}
			src = tr.Output
		}
		b.made += int64(len(src))
		if err := writeUnder(out, f.rel, src); err != nil {
			return err
		}
	}
	return nil
}

// baselineReps is how many times a baseline solve repeats the round trip;
// one pass is about 3 ms, too short to time against 70 ms solves.
const baselineReps = 8

// baseline is the floor any Go source-to-source tool pays before it does
// anything of its own: read, parse with comments, print — on `threads`
// goroutines. It keeps the printed files in memory: creating 64 files costs
// more than parsing them on this file system and varies from run to run,
// which would make the denominator a file-system benchmark. The round trip
// is repeated baselineReps times and the mean pass returned.
func (b *buildInstance) baseline(threads int) (float64, error) {
	b.printed = make([][]byte, len(b.c.files))
	errs := make([]error, threads)
	start := omp.GetWtime()
	for rep := 0; rep < baselineReps; rep++ {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(b.c.files) || errs[w] != nil {
						return
					}
					b.printed[i], errs[w] = roundTrip(filepath.Join(b.src, b.c.files[i].rel))
				}
			}()
		}
		wg.Wait()
	}
	sec := (omp.GetWtime() - start) / baselineReps
	for _, err := range errs {
		if err != nil {
			return sec, err
		}
	}
	return sec, nil
}

func roundTrip(path string) ([]byte, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = format.Node(&buf, fset, file)
	return buf.Bytes(), err
}

func writeUnder(root, rel string, data []byte) error {
	path := filepath.Join(root, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// treeDigest hashes the corpus's files as they appear under root, in
// corpus order. strip removes the driver's generated-code header, so a
// driver tree and a bare core.Transform tree can be compared.
func (b *buildInstance) treeDigest(root string, strip bool) ([]byte, error) {
	h := sha256.New()
	for _, f := range b.c.files {
		data, err := os.ReadFile(filepath.Join(root, f.rel))
		if err != nil {
			return nil, err
		}
		if strip && bytes.HasPrefix(data, []byte("// Code generated by gompcc")) {
			if i := bytes.Index(data, []byte("\n\n")); i >= 0 {
				data = data[i+2:]
			}
		}
		fmt.Fprintf(h, "%s %d\n", f.rel, len(data))
		h.Write(data)
	}
	return h.Sum(nil), nil
}

func (b *buildInstance) verify(flavour int) error {
	if flavour == fBaseline {
		// gofmt-clean input must survive parse and print byte for byte.
		for i, f := range b.c.files {
			if !bytes.Equal(b.printed[i], f.src) {
				return fmt.Errorf("baseline: %s changed in the parse/print round trip", f.rel)
			}
		}
		return nil
	}
	if flavour == fOmp {
		plain := len(b.c.files) - b.c.pragma
		if r := b.rep; r.Failed != 0 || r.Files != len(b.c.files) || r.Pragma != b.c.pragma || r.Transformed != b.c.pragma || r.Copied != plain {
			return fmt.Errorf("driver report %q, generator made %d files, %d with pragmas", r.Summary(), len(b.c.files), b.c.pragma)
		}
	}
	sum, err := b.treeDigest(b.out[flavour], true)
	if err != nil {
		return err
	}
	if b.first[flavour] == nil {
		b.first[flavour] = sum
	} else if !bytes.Equal(sum, b.first[flavour]) {
		return fmt.Errorf("%s: output tree differs from this flavour's first build", flavourNames[flavour])
	}
	return nil
}

// deepVerify runs once per process, untimed, and anchors the digests that
// verify compared every solve against: the T-thread driver output is byte
// identical to a Jobs=1 build and (headers aside) to the bare
// core.Transform loop; the generated module compiles; and the repository's
// own annotated example, pushed through the same driver, builds, runs and
// prints what its serial source computes.
func (b *buildInstance) deepVerify() error {
	if b.first[fOmp] == nil || !bytes.Equal(b.first[fOmp], b.first[fSerial]) {
		return fmt.Errorf("driver output and serial core.Transform output differ")
	}
	one := b.out[fOmp] + "-jobs1"
	defer os.RemoveAll(one)
	if _, err := b.driverRun(one, 1); err != nil {
		return err
	}
	var sums [2][]byte
	for i, root := range []string{b.out[fOmp], one} {
		var err error
		if sums[i], err = b.treeDigest(root, false); err != nil {
			return err
		}
	}
	if !bytes.Equal(sums[0], sums[1]) {
		return fmt.Errorf("driver output at Jobs=%d is not byte-identical to Jobs=1", b.env.threads)
	}
	if err := b.buildTree(b.out[fOmp]); err != nil {
		return err
	}
	return b.annotatedExample()
}

// buildTree compiles a mirror tree with the Go toolchain, and returns the
// compiler's complaint when it does not.
func (b *buildInstance) buildTree(tree string) error {
	gomod, err := os.ReadFile(filepath.Join(b.src, "go.mod"))
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(tree, "go.mod"), gomod, 0o644); err != nil {
		return err
	}
	return goTool(tree, "build", "./...")
}

func goTool(dir string, args ...string) error {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, out)
	}
	return nil
}

func (b *buildInstance) annotatedExample() error {
	src, err := os.ReadFile(filepath.Join(b.env.root, "examples", "annotated", "main.go"))
	if err != nil {
		return err
	}
	dir := filepath.Join(filepath.Dir(b.src), "annotated")
	if err := writeUnder(filepath.Join(dir, "src"), "main.go", src); err != nil {
		return err
	}
	gomod, err := os.ReadFile(filepath.Join(b.src, "go.mod"))
	if err != nil {
		return err
	}
	d, err := driver.New(driver.Config{Module: filepath.Join(dir, "src"), OutDir: filepath.Join(dir, "out"), Jobs: b.env.threads, CacheDir: driver.CacheOff})
	if err != nil {
		return err
	}
	if rep, err := d.Run(); err != nil {
		return err
	} else if rep.Transformed != 1 {
		return fmt.Errorf("examples/annotated: driver reports %q, want one file transformed", rep.Summary())
	}
	if err := os.WriteFile(filepath.Join(dir, "out", "go.mod"), gomod, 0o644); err != nil {
		return err
	}
	bin := filepath.Join(dir, "annotated.bin")
	if err := goTool(filepath.Join(dir, "out"), "build", "-o", bin, "."); err != nil {
		return err
	}
	got, err := exec.Command(bin).Output()
	if err != nil {
		return fmt.Errorf("examples/annotated: %w", err)
	}
	// The serial meaning of the source: Σ i for i < 100000, and i² for i < 8.
	const n = 100000
	want := fmt.Sprintf("sum %d\nsquares [0 1 4 9 16 25 36 49]\n", n*(n-1)/2)
	if string(got) != want {
		return fmt.Errorf("examples/annotated printed %q, want %q", got, want)
	}
	return nil
}

// work: directives lowered stand for operations; bytes are source read
// plus generated source written.
func (b *buildInstance) work() (ops, bytes float64) {
	return float64(b.c.directives), float64(int64(b.c.bytes) + b.made)
}
