package core

import (
	"bytes"
	"slices"
)

// The batch-oriented face of the front end. Transform is a pure function —
// it builds all parser, AST and encoding state per call and touches no
// package-level variables — so the module build driver (internal/driver)
// can fan files out across a worker team: one file in, one result out,
// every diagnostic positioned (opts.Filename and a line), nothing written
// to any stream.

// EngineVersion identifies the transform engine's output format. It
// participates in the build driver's content hashes, so bumping it
// invalidates every cached transform. Bump it whenever Transform can
// produce different output for the same input and options: new
// directives, changed lowerings, changed formatting.
const EngineVersion = "gomp-core/18"

// TransformResult is one file's trip through the preprocessor.
type TransformResult struct {
	// Output is the transformed source — gofmt-formatted when Changed,
	// the input bytes untouched otherwise.
	Output []byte
	// Changed reports whether any pragma lowered or any instrumentation
	// applied; a pragma-free file round-trips with Changed=false.
	Changed bool
}

// ContainsPragma reports whether any line of src begins with a pragma
// sentinel — a cheap pre-filter for crawlers deciding which files are
// worth a full parse. It scans raw lines, so a sentinel inside a string
// literal is a false positive; Transform's Changed result is the
// authoritative answer.
func ContainsPragma(src []byte) bool {
	for len(src) > 0 {
		line := src
		if i := bytes.IndexByte(src, '\n'); i >= 0 {
			line, src = src[:i], src[i+1:]
		} else {
			src = nil
		}
		line = bytes.TrimLeft(line, " \t")
		if !slices.ContainsFunc(sentinelStems, func(s []byte) bool { return bytes.HasPrefix(line, s) }) {
			continue
		}
		if _, _, ok := Sentinel(string(bytes.TrimRight(line, " \t\r"))); ok {
			return true
		}
	}
	return false
}
