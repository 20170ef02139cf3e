package core

import (
	"bytes"
	"strings"
)

// The batch-oriented face of the front end. Preprocess is a pure
// function — it builds all parser, AST and encoding state per call and
// touches no package-level variables — so the module build driver
// (internal/driver) can fan files out across a worker team. Transform is
// the entry point it calls: one file in, one result out, every
// diagnostic positioned, nothing written to any stream.

// EngineVersion identifies the transform engine's output format. It
// participates in the build driver's content hashes, so bumping it
// invalidates every cached transform. Bump it whenever Preprocess can
// produce different output for the same input and options: new
// directives, changed lowerings, changed formatting.
const EngineVersion = "gomp-core/8"

// TransformResult is one file's trip through the preprocessor.
type TransformResult struct {
	// Output is the transformed source — gofmt-formatted when Changed,
	// the input bytes untouched otherwise.
	Output []byte
	// Changed reports whether any pragma lowered or any instrumentation
	// applied; a pragma-free file round-trips with Changed=false.
	Changed bool
}

// Transform rewrites one annotated source file, the concurrency-safe
// entry point batch drivers call: any number of Transform calls may run
// simultaneously. Errors carry opts.Filename and a line, exactly as
// Preprocess reports them.
func Transform(src []byte, opts Options) (TransformResult, error) {
	out, err := Preprocess(src, opts)
	if err != nil {
		return TransformResult{}, err
	}
	return TransformResult{Output: out, Changed: !bytes.Equal(out, src)}, nil
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
		trimmed := strings.TrimLeft(string(line), " \t")
		if !strings.HasPrefix(trimmed, "//") {
			continue
		}
		if _, _, ok := Sentinel(strings.TrimRight(trimmed, " \t\r")); ok {
			return true
		}
	}
	return false
}
