package driver

import (
	"bytes"
	"go/build"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// The tree crawler: phase one of a driver pass. It walks the module and
// returns every source file the build might compile, in
// deterministic (WalkDir lexical) order: not tests, and nothing in the
// trees the Go toolchain itself ignores (vendor/, testdata/, leading-dot
// and leading-underscore names, directories below the root holding a
// go.mod: other modules), the cache, or the mirror's own root.
// The crawl itself only lists directories: the checks that need a file's
// bytes (build constraints, the generated-code header) run in the worker
// that reads the file anyway, so each file is read once.

// sourceFile is one crawled candidate: its module-relative
// slash-separated path (the manifest key) and its absolute path.
type sourceFile struct {
	rel  string
	path string
}

// generatedRx matches the Go convention for generated files
// (https://go.dev/s/generatedcode): a whole-line comment anywhere
// before real code. GeneratedHeader writes exactly this marker.
var generatedRx = regexp.MustCompile(`(?m)^// Code generated .* DO NOT EDIT\.$`)

// skipDir reports whether a directory subtree is invisible to the
// crawl, by base name.
func skipDir(name string) bool {
	return name == "vendor" || name == "testdata" || name == cacheDirName ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// eligibleName reports whether a file's base name is a candidate: a file
// of a kind go/build compiles into a package (.go, or one of sourceExts)
// that is not a test and not toolchain-ignored.
func eligibleName(name string) bool {
	return (strings.HasSuffix(name, ".go") || sourceExts[filepath.Ext(name)]) &&
		!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// crawled reports whether the crawl takes up the file at rel, a slash-
// separated path below a crawled directory: its name is eligible and no
// directory on the way is skipped.
func crawled(rel string) bool {
	dir, name := path.Split(rel)
	return eligibleName(name) && !slices.ContainsFunc(strings.Split(strings.TrimSuffix(dir, "/"), "/"), skipDir)
}

// sourceExts are the non-Go source kinds go/build adds to a package
// (assembly, C and its kin, headers, SWIG, system objects). The mirror
// copies them verbatim, so a package whose function bodies live in
// assembly builds from it as from the original.
var sourceExts = map[string]bool{
	".s": true, ".S": true, ".sx": true,
	".c": true, ".cc": true, ".cpp": true, ".cxx": true, ".m": true,
	".h": true, ".hh": true, ".hpp": true, ".hxx": true,
	".f": true, ".F": true, ".for": true, ".f90": true,
	".swig": true, ".swigcxx": true, ".syso": true,
}

// embedFiles returns the files that the package in dir embeds, relative
// to dir and slash-separated: go/build's EmbedPatterns for the package,
// each resolved as the go command resolves it. A pattern is a path.Match
// glob; a directory it matches stands for the regular files in its tree,
// less those under a name starting with '.' or '_' (unless the pattern
// starts with all:) and less subdirectories holding a go.mod. A pattern
// that matches nothing is go build's to report.
func embedFiles(dir string) ([]string, error) {
	pkg, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	fsys := os.DirFS(dir)
	var files []string
	for _, pattern := range pkg.EmbedPatterns {
		glob, all := strings.CutPrefix(pattern, "all:")
		matches, err := fs.Glob(fsys, glob)
		if err != nil {
			return nil, err
		}
		for _, m := range matches {
			err := fs.WalkDir(fsys, m, func(p string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if p != m {
					if name := d.Name(); !all && (name[0] == '.' || name[0] == '_') {
						if d.IsDir() {
							return fs.SkipDir
						}
						return nil
					}
					if d.IsDir() {
						if _, err := fs.Stat(fsys, path.Join(p, "go.mod")); err == nil {
							return fs.SkipDir // another module
						}
					}
				}
				if d.Type().IsRegular() {
					files = append(files, p)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}
	slices.Sort(files)
	return slices.Compact(files), nil
}

// isGenerated reports whether the file head carries the generated-code
// marker. Only the first kilobyte counts: the convention puts the marker
// before the package clause.
func isGenerated(src []byte) bool {
	head := src[:min(len(src), 1024)]
	if i := bytes.Index(head, []byte("\npackage ")); i >= 0 {
		head = head[:i]
	}
	return bytes.Contains(head, []byte(" DO NOT EDIT.")) && generatedRx.Match(head)
}

// inBuild reports whether the file at path, holding src, is one the build
// compiles: go/build's MatchFile under ctx (the driver passes
// build.Default), reading src rather than the disk, says its //go:build
// line and GOOS/GOARCH suffix allow it, exactly as `go build` decides.
//
// Most files give MatchFile nothing to decide, and asking it costs a
// 4 KiB reader and an import scan per file, so it is asked only when
// plainFile cannot answer for it.
func inBuild(ctx *build.Context, path string, src []byte) (bool, error) {
	if plainFile(filepath.Base(path), src) {
		return true, nil
	}
	bctx := *ctx
	bctx.OpenFile = func(string) (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(src)), nil }
	return bctx.MatchFile(filepath.Dir(path), filepath.Base(path))
}

// plainFile reports whether go/build's MatchFile would answer (true, nil)
// for the file named name holding src, judged without running it. MatchFile
// drops a file for its name (a leading '.' or '_', another extension, a
// _GOOS or _GOARCH suffix), for a build constraint (a //go:build line, or
// a // +build line) in the comments above its package clause, or fails on a
// NUL byte; a name without '_' and a file in which none of those spellings
// occurs anywhere leave it no reason to do either. A file naming "C" — an
// import "C" — goes to MatchFile too: go/build decides cgo files by the
// configuration elsewhere (Import drops them with cgo off), and this keeps
// the answer MatchFile's should it ever do so here.
func plainFile(name string, src []byte) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasPrefix(name, ".") && !strings.Contains(name, "_") &&
		bytes.IndexByte(src, 0) < 0 &&
		!bytes.Contains(src, []byte("//go:build")) && !bytes.Contains(src, []byte("+build")) &&
		!bytes.Contains(src, []byte(`"C"`))
}

// crawl walks cfg.Module and returns the candidate file set: every file
// whose path and name make it eligible. Which of them the build compiles
// is inBuild's to decide.
func crawl(cfg Config) ([]sourceFile, error) {
	root, err := filepath.Abs(cfg.Module)
	if err != nil {
		return nil, err
	}
	var cacheAbs string
	outAbs, _ := filepath.Abs(cfg.OutDir)
	if cfg.CacheDir != CacheOff {
		cacheAbs, _ = filepath.Abs(cfg.CacheDir)
	}
	var files []sourceFile
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if skipDir(d.Name()) || path == outAbs || path == cacheAbs {
				return filepath.SkipDir
			}
			if fi, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && !fi.IsDir() {
				return filepath.SkipDir // another module, as go build ./... sees it
			}
			return nil
		}
		name := d.Name()
		if !eligibleName(name) {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files = append(files, sourceFile{rel: filepath.ToSlash(rel), path: path})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return files, nil
}
