// Package driver is how annotated source becomes a build. This comment is
// the whole account of it; gompcc's usage, the README and the gomp package
// documentation point here.
//
// # Build integration
//
// gompcc offers three paths from //omp pragmas to the Go toolchain, each
// one core.Transform per pragma-bearing file.
//
// Single file. `gompcc -o out.go in.go` writes in.go's transform to
// out.go behind GeneratedHeader; `gompcc -stdout in.go` prints the bare
// transform, and one of the two is required. The NPB
// kernels keep their omp flavours this way: internal/npb/<k>/omp.go is
// the -o output of <k>/_omp/parallel.go, from a //go:generate line.
//
// Mirror. `gompcc -module root -outdir out` reproduces root's buildable
// sources under out at the same relative paths: a pragma-bearing file is
// written transformed, behind GeneratedHeader; every other file the build
// compiles — Go or not: assembly, C, headers, system objects — is copied
// verbatim. A file that already carries a generated-code header, such as a
// committed -o output, is copied and never transformed. So are the files
// a package embeds with //go:embed, as the go command resolves its
// patterns (embedFiles). out may sit inside root, which
// the crawl then skips, but may not be root itself. out builds and vets
// with the plain go command; CI self-hosts the whole module this way and
// builds gompcc from the mirror. A pass has four phases:
//
//   - The crawl (crawl.go) lists every candidate source file, skipping
//     tests, vendor/, testdata/, hidden and underscore trees, nested
//     modules (a directory below root holding a go.mod), the cache and
//     out.
//   - A worker team fans the files out one at a time, on this
//     repository's own omp runtime, so the driver dogfoods the runtime it
//     builds for. Each worker reads its file once, into a buffer it reuses
//     from file to file, and decides everything from those bytes: build
//     membership (go/build's MatchFile, asked only when the name or bytes
//     give it something to decide: inBuild), the generated-code header, the
//     cache key and the transform. A transformed file's header and lowered
//     text go into the worker's second reused buffer (core.AppendTransform),
//     so a file costs no file-sized allocation once the buffers have grown
//     to the pass's largest.
//   - The content-hash cache (cache.go) is a manifest under
//     <root>/.gompcc-cache: per file the SHA-256 of its bytes and the
//     action (transform or copy), plus the flag set and
//     core.EngineVersion, which a change of either discards whole. A warm
//     pass skips every file whose entry matches and whose output is still
//     on disk. The manifest is timestamp-free and sorted, so it, like every
//     output, is byte-identical at every -jobs value. -cache off disables
//     it.
//   - Every output is written with one create (writeOutput), in a
//     directory the pass creates once; an output already there is removed
//     and created again, so a write never goes through an old hard link or
//     symlink. The writes are not atomic; the manifest carries the crash
//     safety. A caching pass removes it after loading it, before its first
//     write, and saves the next one atomically (atomic.go) after its last,
//     so a pass that dies midway leaves no manifest, and the next pass
//     rewrites every output.
//
// Each pass returns a Report: its cold and warm file counts and summed
// transform time. BenchmarkDriverColdVsWarm tracks cold against warm
// throughput in files/s.
//
// Toolexec. `go build -toolexec="gompcc -toolexec" ./...` transforms
// pragma-bearing compile inputs into a temporary directory as the go
// command compiles them, with no generated file on disk (toolexec.go).
// The annotated package must import gomp/omp (a blank import will do),
// because the go command plans the build from the original sources;
// without it gompcc stops with a diagnostic naming the file. gompcc adds
// its own identity to the compiler's, so the build cache keeps toolexec
// and plain compiles of the same source apart.
package driver

import (
	"bytes"
	"errors"
	"fmt"
	"go/build"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"gomp/internal/core"
	"gomp/omp"
)

// Config parameterises one Driver.
type Config struct {
	// Module is the root directory to crawl.
	Module string
	// OutDir is the mirror's root: every buildable source is written under
	// it, transformed or copied, at its module-relative path.
	OutDir string
	// Jobs is the transform worker-team size; it defaults to
	// GOMAXPROCS. 1 is exactly serial.
	Jobs int
	// CacheDir overrides the manifest location, which defaults to
	// <Module>/.gompcc-cache. CacheOff disables caching entirely.
	CacheDir string
	// Profile forwards `gompcc -profile` auto-instrumentation.
	Profile bool
}

// CacheOff as Config.CacheDir disables the content-hash cache: every
// pragma-bearing file is re-transformed and no manifest is written.
const CacheOff = "off"

func (c *Config) defaults() {
	if c.Jobs <= 0 {
		c.Jobs = runtime.GOMAXPROCS(0)
	}
	if c.CacheDir == "" {
		c.CacheDir = filepath.Join(c.Module, cacheDirName)
	}
}

// flagKey canonicalises every configuration input that affects output
// bytes. It is stored in the manifest; any difference invalidates the
// whole cache, because flags apply to every file alike.
func (c *Config) flagKey() string {
	return fmt.Sprintf("profile=%v", c.Profile)
}

// Driver runs module-scale preprocessing passes for one Config. A
// Driver is stateless between passes: all persistence lives in the
// manifest.
type Driver struct {
	cfg Config
}

// New validates cfg and returns a Driver for it.
func New(cfg Config) (*Driver, error) {
	if cfg.Module == "" {
		return nil, fmt.Errorf("driver: no module root")
	}
	if cfg.OutDir == "" {
		return nil, fmt.Errorf("driver: no output root: -module needs -outdir")
	}
	// Mirroring a tree onto itself would overwrite every annotated source
	// with its transform.
	mod, err := filepath.Abs(cfg.Module)
	if err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	out, err := filepath.Abs(cfg.OutDir)
	if err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	if out == mod {
		return nil, fmt.Errorf("driver: -outdir %s is the module root itself", cfg.OutDir)
	}
	info, err := os.Stat(cfg.Module)
	if err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("driver: %s is not a directory", cfg.Module)
	}
	cfg.defaults()
	return &Driver{cfg: cfg}, nil
}

// FileError is one file's failure, position information included.
type FileError struct {
	Path string // module-relative
	Err  error
}

func (e FileError) Error() string { return e.Err.Error() }

// Report is the outcome of one driver pass.
type Report struct {
	Files       int         // eligible files crawled
	Pragma      int         // files containing pragma sentinels
	Transformed int         // cold: preprocessed this pass
	Cached      int         // warm: skipped via manifest hash match
	Copied      int         // written verbatim: no pragma, or generated already
	Failed      int         // files whose transform errored
	TransformNs int64       // summed per-file transform time
	Diags       []FileError // in module-relative path order
}

// Summary renders the one-line account gompcc logs after a pass.
func (r *Report) Summary() string {
	s := fmt.Sprintf("%d files (%d pragma), %d transformed, %d cached", r.Files, r.Pragma, r.Transformed, r.Cached)
	if r.Copied > 0 {
		s += fmt.Sprintf(", %d copied", r.Copied)
	}
	if r.Failed > 0 {
		s += fmt.Sprintf(", %d FAILED", r.Failed)
	}
	return s
}

// Err aggregates the pass's per-file failures, or nil when every file
// succeeded. One bad file never masks the rest of the module: the pass
// completes, and the summary names every failure.
func (r *Report) Err() error {
	if r.Failed == 0 {
		return nil
	}
	var b strings.Builder
	for _, d := range r.Diags {
		fmt.Fprintf(&b, "%v\n", d.Err)
	}
	fmt.Fprintf(&b, "gompcc: %d of %d files failed", r.Failed, r.Files)
	return fmt.Errorf("%s", b.String())
}

// fileResult is one worker's verdict on one file; results are collected
// index-addressed so the fan-out shares nothing and the aggregate is
// identical at every Jobs value.
type fileResult struct {
	excluded    bool   // not in the build: tags or GOOS/GOARCH
	action      string // actionTransform or actionCopy
	hash        string
	cached      bool
	pragma      bool
	transformNs int64
	err         error
}

// Run executes one full pass: crawl, load and remove the previous
// manifest, fan out, save the next manifest. The returned Report is
// complete even when files failed; Report.Err carries the aggregate.
func (d *Driver) Run() (*Report, error) {
	cfg := d.cfg
	files, err := crawl(cfg)
	if err != nil {
		return nil, err
	}
	caching := cfg.CacheDir != CacheOff
	manifestPath := filepath.Join(cfg.CacheDir, manifestName)
	var prev *manifest
	if caching {
		prev = loadManifest(manifestPath, core.EngineVersion, cfg.flagKey())
		// Outputs are not written atomically. A pass that dies before
		// saving the next manifest must leave none behind, or the next
		// pass would take an output it cut short for cached.
		if err := os.Remove(manifestPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("driver: removing manifest: %w", err)
		}
	}

	results := make([]fileResult, len(files))
	dirs := &dirSet{made: map[string]error{}, embedded: map[string]bool{}}
	work := func(w *worker, lo, hi int64) {
		for i := lo; i < hi; i++ {
			results[i] = d.processOne(files[i], prev, dirs, w)
		}
	}
	if cfg.Jobs <= 1 || len(files) < 2 {
		work(new(worker), 0, int64(len(files)))
	} else {
		// The dogfooding call site: the crawl fan-out runs on the very
		// runtime whose sources the driver preprocesses. ParallelErr turns
		// a worker's panic into an error; the loop runs nowait, so the
		// join is its only rendezvous. Files differ in cost by an order of
		// magnitude (no pragma, or dozens): hand them out one at a time.
		err := omp.ParallelErr(func(t *omp.Thread) error {
			w := new(worker)
			omp.ForRange(t, int64(len(files)), func(lo, hi int64) { work(w, lo, hi) }, omp.Schedule(omp.Dynamic, 1), omp.NoWait())
			return nil
		}, omp.NumThreads(cfg.Jobs))
		if err != nil {
			return nil, fmt.Errorf("driver: worker team: %w", err)
		}
	}

	rep := &Report{}
	var next *manifest
	if caching {
		next = newManifest(core.EngineVersion, cfg.flagKey())
	}
	for i, res := range results {
		if res.excluded {
			if res.err != nil { // a build constraint go/build cannot read
				return nil, res.err
			}
			continue
		}
		rep.Files++
		if res.pragma {
			rep.Pragma++
		}
		if res.err != nil {
			rep.Failed++
			rep.Diags = append(rep.Diags, FileError{Path: files[i].rel, Err: res.err})
			continue
		}
		switch res.action {
		case actionTransform:
			if res.cached {
				rep.Cached++
			} else {
				rep.Transformed++
			}
		case actionCopy:
			if res.cached {
				rep.Cached++
			} else {
				rep.Copied++
			}
		}
		rep.TransformNs += res.transformNs
		if caching {
			next.Files[files[i].rel] = fileEntry{Hash: res.hash, Action: res.action}
		}
	}
	if caching {
		if err := next.save(manifestPath); err != nil {
			return rep, fmt.Errorf("driver: writing manifest: %w", err)
		}
	}
	return rep, nil
}

// GeneratedHeader marks preprocessor outputs — the driver's and gompcc's
// single-file -o output — following the Go convention the crawler (and any
// other tool) recognises; the source line keeps the provenance greppable.
func GeneratedHeader(rel string) []byte {
	return appendHeader(nil, rel)
}

// appendHeader appends GeneratedHeader(rel) to b.
func appendHeader(b []byte, rel string) []byte {
	b = append(b, "// Code generated by gompcc from "...)
	b = append(b, filepath.ToSlash(rel)...)
	return append(b, ". DO NOT EDIT.\n\n"...)
}

// dirSet is what one pass has done once per directory, shared by the
// workers: the output directories it has created, each on the first write
// into it, and the package directories whose embedded files it has copied.
type dirSet struct {
	mu       sync.Mutex
	made     map[string]error // directory → what creating it returned
	embedded map[string]bool  // package directories claimed by claimEmbeds
}

// ensure creates dir, with its parents, unless this pass already has. A
// directory that could not be created fails every file written into it.
func (s *dirSet) ensure(dir string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err, ok := s.made[dir]
	if !ok {
		err = os.MkdirAll(dir, 0o755)
		s.made[dir] = err
	}
	return err
}

// claimEmbeds reports whether no file of the package directory dir has
// claimed copying its embedded files yet, and claims it.
func (s *dirSet) claimEmbeds(dir string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.embedded[dir] {
		return false
	}
	s.embedded[dir] = true
	return true
}

// copyEmbeds copies the files that the package of f embeds (embedFiles)
// into the mirror verbatim, unless another file of the package has. A
// file that the crawl itself mirrors, such as a .go file of the build, is
// left to its own worker, which may write it transformed. Each is read
// into w.out, which holds nothing yet while f is processed.
func (d *Driver) copyEmbeds(f sourceFile, dirs *dirSet, w *worker) error {
	rel, src := path.Dir(f.rel), filepath.Dir(f.path)
	if !dirs.claimEmbeds(rel) {
		return nil
	}
	files, err := embedFiles(src)
	if err != nil {
		return err
	}
	for _, e := range files {
		p := filepath.Join(src, filepath.FromSlash(e))
		b, err := readFile(p, w.out)
		w.out = b
		if err != nil {
			return err
		}
		if crawled(e) {
			if ok, _ := inBuild(&build.Default, p, b); ok {
				continue
			}
		}
		out := filepath.Join(d.cfg.OutDir, filepath.FromSlash(rel), filepath.FromSlash(e))
		if err := dirs.ensure(filepath.Dir(out)); err != nil {
			return err
		}
		if err := writeOutput(out, b); err != nil {
			return err
		}
	}
	return nil
}

// worker is what one worker of a pass reuses from file to file: in holds
// the file being processed, out what is written for it. Nothing a
// fileResult keeps points into either.
type worker struct {
	in, out []byte
}

// processOne is the per-file worker body. It reads the file once, drops
// it if the build does not compile it, copies its package's embedded files
// if it names any, hashes it when caching, consults the previous manifest,
// and only on a miss pays the transform and the write. The write is not
// atomic; a pass cut short leaves no manifest (Run), so nothing it wrote
// is ever taken for cached. It runs concurrently with itself on other
// files and shares nothing mutable but the pass's dirSet; w is its own.
func (d *Driver) processOne(f sourceFile, prev *manifest, dirs *dirSet, w *worker) fileResult {
	cfg := d.cfg
	src, err := readFile(f.path, w.in)
	w.in = src
	if err != nil {
		return fileResult{err: err}
	}
	if ok, err := inBuild(&build.Default, f.path, src); !ok {
		return fileResult{excluded: true, err: err}
	}
	// The files a package embeds go into the mirror beside it, whatever
	// the cache says of the file naming them: they may have changed alone.
	if strings.HasSuffix(f.rel, ".go") && bytes.Contains(src, []byte("//go:embed")) {
		if err := d.copyEmbeds(f, dirs, w); err != nil {
			return fileResult{err: fmt.Errorf("%s: copying embedded files: %w", f.rel, err)}
		}
	}
	// A generated file, gompcc's own -o output among them, is part of the
	// build as it stands: it is copied, never transformed, as is every
	// non-Go source.
	res := fileResult{pragma: strings.HasSuffix(f.rel, ".go") && !isGenerated(src) && core.ContainsPragma(src)}
	if cfg.CacheDir != CacheOff {
		res.hash = sourceHash(src)
	}
	outPath := filepath.Join(cfg.OutDir, filepath.FromSlash(f.rel))

	// Warm path: same bytes under the same flags and engine (the
	// manifest loader already rejected mismatched flag sets), and the
	// output still on disk.
	if e, ok := prev.lookup(f.rel); ok && e.Hash == res.hash {
		if _, err := os.Stat(outPath); err == nil {
			res.action, res.cached = e.Action, true
			return res
		}
	}

	// A transformed file is its header followed by the lowered text, both
	// written into w.out.
	out := src
	res.action = actionCopy
	if res.pragma {
		begin := time.Now()
		tr, err := core.AppendTransform(appendHeader(w.out[:0], f.rel), src, core.Options{Filename: filepath.ToSlash(f.rel), Profile: cfg.Profile})
		res.transformNs = time.Since(begin).Nanoseconds()
		if err != nil {
			res.err = err
			return res
		}
		w.out = tr.Output
		// Not Changed despite the sentinel scan: the "pragma" lives in a
		// string literal or other non-comment text, and the file is copied.
		if tr.Changed {
			res.action, out = actionTransform, tr.Output
		}
	}
	if err := dirs.ensure(filepath.Dir(outPath)); err != nil {
		res.err = err
		return res
	}
	if err := writeOutput(outPath, out); err != nil {
		res.err = err
	}
	return res
}

// readFile reads the file at path into buf's array, growing it as the
// file needs, and returns the bytes read.
func readFile(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf[:0], err
	}
	defer f.Close()
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 4096)
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// writeOutput writes b to path through a single O_EXCL create. A path that
// already exists is removed and created again, so the write replaces the
// file and never goes through an old hard link or symlink. The write is not
// atomic; Run's handling of the manifest makes that safe.
func writeOutput(path string, b []byte) error {
	const flags = os.O_WRONLY | os.O_CREATE | os.O_EXCL
	f, err := os.OpenFile(path, flags, 0o644)
	if errors.Is(err, fs.ErrExist) {
		if err = os.Remove(path); err == nil {
			f, err = os.OpenFile(path, flags, 0o644)
		}
	}
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
