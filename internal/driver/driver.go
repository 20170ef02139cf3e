// Package driver is the module-scale build driver behind `gompcc
// -module`: the layer that turns the per-file preprocessor into
// something that sits inside a normal build over millions of lines.
//
// A run has four phases. The crawler walks a Go module and discovers
// every preprocessor-eligible source file (crawl.go), skipping vendor/,
// testdata/, hidden trees and prior outputs. The transform engine fans
// the file set out across a worker team, balanced file by file — using
// the repo's own omp package, so the driver dogfoods the runtime it
// builds for. Each worker reads its file once and decides everything from
// those bytes: build membership and the generated-code marker, the cache
// key, the transform. Build membership is go/build's MatchFile answer, and
// MatchFile runs only for a file whose name or bytes give it something to
// decide (inBuild, crawl.go); every other .go file is in the build. A
// content-hash cache (cache.go) persisted as a manifest under
// .gompcc-cache/ lets warm runs skip unchanged files entirely. And every
// output lands via temp-file + rename (atomic.go), in a directory the pass
// creates once, on its first write into it, so a crashed or cancelled run
// never leaves a half-written _omp.go behind.
//
// Two output layouts exist. In-place (OutDir == ""): each
// pragma-bearing file gains a sibling <name><Suffix>.go, the layout
// `gompcc -dir` established. Mirror (OutDir set): the module's
// eligible sources are reproduced under OutDir with pragma-bearing
// files transformed in place of their originals and pragma-free files
// copied verbatim — a tree the ordinary Go toolchain can build and vet
// as-is, which is how CI self-hosts the driver over examples/.
package driver

import (
	"fmt"
	"go/build"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"gomp/internal/core"
	"gomp/internal/trace"
	"gomp/omp"
)

// Config parameterises one Driver.
type Config struct {
	// Module is the root directory to crawl.
	Module string
	// OutDir selects mirror layout when non-empty: eligible sources are
	// written under it (transformed or copied) at their module-relative
	// paths. Empty selects in-place <name><Suffix>.go siblings.
	OutDir string
	// Suffix names in-place outputs; it defaults to "_omp".
	Suffix string
	// Jobs is the transform worker-team size; it defaults to
	// GOMAXPROCS. 1 is exactly serial.
	Jobs int
	// CacheDir overrides the manifest location, which defaults to
	// <Module>/.gompcc-cache. CacheOff disables caching entirely.
	CacheDir string
	// Profile forwards `gompcc -profile` auto-instrumentation.
	Profile bool
	// OmpImport forwards the runtime import path override.
	OmpImport string
}

// CacheOff as Config.CacheDir disables the content-hash cache: every
// pragma-bearing file is re-transformed and no manifest is written.
const CacheOff = "off"

func (c *Config) defaults() {
	if c.Suffix == "" {
		c.Suffix = "_omp"
	}
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
	layout := "inplace"
	if c.OutDir != "" {
		layout = "mirror"
	}
	imp := c.OmpImport
	if imp == "" {
		imp = "gomp/omp"
	}
	return fmt.Sprintf("layout=%s suffix=%s profile=%v ompimport=%s", layout, c.Suffix, c.Profile, imp)
}

// Driver runs module-scale preprocessing passes for one Config. A
// Driver is stateless between passes — all persistence lives in the
// manifest — so one value serves both single runs and watch loops.
type Driver struct {
	cfg Config
}

// New validates cfg and returns a Driver for it.
func New(cfg Config) (*Driver, error) {
	if cfg.Module == "" {
		return nil, fmt.Errorf("driver: no module root")
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
	Files       int // eligible files crawled
	Pragma      int // files containing pragma sentinels
	Transformed int // cold: preprocessed this pass
	Cached      int // warm: skipped via manifest hash match
	Copied      int // mirror layout: pragma-free files copied
	Failed      int // files whose transform errored
	TransformNs int64
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
	excluded    bool   // not in the build: tags, GOOS/GOARCH or generated
	action      string // actionTransform, actionCopy, actionSkip
	hash        string
	output      string // module-relative output path, "" when none
	cached      bool
	pragma      bool
	transformNs int64
	err         error
}

// Run executes one full pass: crawl, fan out, persist the manifest,
// feed the metrics registry. The returned Report is complete even when
// files failed; Report.Err carries the aggregate.
func (d *Driver) Run() (*Report, error) {
	cfg := d.cfg
	files, err := crawl(cfg)
	if err != nil {
		return nil, err
	}
	caching := cfg.CacheDir != CacheOff
	var prev *manifest
	if caching {
		prev = loadManifest(filepath.Join(cfg.CacheDir, manifestName), core.EngineVersion, cfg.flagKey())
	}

	results := make([]fileResult, len(files))
	dirs := &dirSet{made: map[string]error{}}
	work := func(lo, hi int64) {
		for i := lo; i < hi; i++ {
			results[i] = d.processOne(files[i], prev, dirs)
		}
	}
	if cfg.Jobs <= 1 || len(files) < 2 {
		work(0, int64(len(files)))
	} else {
		// The dogfooding call site: the crawl fan-out runs on the very
		// runtime whose sources the driver preprocesses. ParallelErr turns
		// a worker's panic into an error; the loop runs nowait, so the
		// join is its only rendezvous. Files differ in cost by an order of
		// magnitude (no pragma, or dozens): hand them out one at a time.
		err := omp.ParallelErr(func(t *omp.Thread) error {
			omp.ForRange(t, int64(len(files)), work, omp.Schedule(omp.Dynamic, 1), omp.NoWait())
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
			next.Files[files[i].rel] = fileEntry{Hash: res.hash, Action: res.action, Output: res.output}
		}
	}
	if caching {
		if err := next.save(filepath.Join(cfg.CacheDir, manifestName)); err != nil {
			return rep, fmt.Errorf("driver: writing manifest: %w", err)
		}
	}
	if p := trace.Default(); p != nil {
		m := p.Metrics()
		m.DriverColdFiles.Add(int64(rep.Transformed))
		m.DriverWarmFiles.Add(int64(rep.Cached))
		m.DriverTransformNs.Add(rep.TransformNs)
	}
	return rep, nil
}

// GeneratedHeader marks preprocessor outputs — the driver's and gompcc's
// single-file -o output — following the Go convention the crawler (and any
// other tool) recognises; the source line keeps the provenance greppable.
func GeneratedHeader(rel string) []byte {
	return fmt.Appendf(nil, "// Code generated by gompcc from %s. DO NOT EDIT.\n\n", filepath.ToSlash(rel))
}

// outAbs resolves a module-relative output path against the layout's
// root: OutDir under the mirror layout, the module itself in-place.
func (d *Driver) outAbs(rel string) string {
	root := d.cfg.Module
	if d.cfg.OutDir != "" {
		root = d.cfg.OutDir
	}
	return filepath.Join(root, filepath.FromSlash(rel))
}

// dirSet is the output directories one pass has created, each once, on
// the first write into it; the workers share it.
type dirSet struct {
	mu   sync.Mutex
	made map[string]error // directory → what creating it returned
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

// processOne is the per-file worker body. It reads the file once, drops
// it if the build does not compile it, hashes it when caching, consults
// the previous manifest, and only on a miss pays the transform and the
// atomic write. It runs concurrently with itself on other files and
// shares nothing mutable but the pass's set of created directories.
func (d *Driver) processOne(f sourceFile, prev *manifest, dirs *dirSet) fileResult {
	cfg := d.cfg
	mirror := cfg.OutDir != ""
	src, err := os.ReadFile(f.path)
	if err != nil {
		return fileResult{err: err}
	}
	if ok, err := inBuild(&build.Default, f.path, src); !ok {
		return fileResult{excluded: true, err: err}
	}
	res := fileResult{pragma: core.ContainsPragma(src)}
	if cfg.CacheDir != CacheOff {
		res.hash = sourceHash(src)
	}

	// Warm path: same bytes under the same flags and engine (the
	// manifest loader already rejected mismatched flag sets), and the
	// recorded output — if any — still on disk.
	if e, ok := prev.lookup(f.rel); ok && e.Hash == res.hash {
		live := e.Output == ""
		if !live {
			_, statErr := os.Stat(d.outAbs(e.Output))
			live = statErr == nil
		}
		if live {
			res.action, res.output, res.cached = e.Action, e.Output, true
			return res
		}
	}

	// The output is head followed by body: a transformed file is written
	// behind its header, not joined to it first.
	var head []byte
	body := src
	action := actionCopy
	if res.pragma {
		begin := time.Now()
		tr, err := core.Transform(src, core.Options{
			Filename:  filepath.ToSlash(f.rel),
			OmpImport: cfg.OmpImport,
			Profile:   cfg.Profile,
		})
		res.transformNs = time.Since(begin).Nanoseconds()
		if err != nil {
			res.err = err
			return res
		}
		if tr.Changed {
			action = actionTransform
			head, body = GeneratedHeader(f.rel), tr.Output
		}
		// Not Changed despite the sentinel scan: the "pragma" lives in
		// a string literal or other non-comment text. The file is then
		// an ordinary copy — in particular it must NOT gain an in-place
		// _omp.go sibling, which would duplicate its declarations.
	}
	if action == actionCopy && !mirror {
		// In-place layout: a file with nothing to lower needs no
		// output — the original is already part of the build.
		res.action = actionSkip
		return res
	}
	outRel := f.rel
	if !mirror {
		outRel = strings.TrimSuffix(f.rel, ".go") + cfg.Suffix + ".go"
	}
	res.action, res.output = action, outRel
	outPath := d.outAbs(outRel)
	if err := dirs.ensure(filepath.Dir(outPath)); err != nil {
		res.err = err
		return res
	}
	if err := writeFileAtomic(outPath, 0o644, head, body); err != nil {
		res.err = err
		return res
	}
	return res
}
