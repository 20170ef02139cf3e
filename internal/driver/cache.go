package driver

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
)

// The content-hash cache: what makes a warm `gompcc -module` run skip
// unchanged files entirely. The unit of validity is (source bytes,
// flag set, transform-engine version): source bytes hash per file,
// while flags and engine version are manifest-wide — they apply to
// every file alike, so a mismatch discards the whole previous pass.
//
// The manifest is deliberately timestamp-free and map-keyed (Go's JSON
// encoder emits map keys sorted), so the bytes on disk are a pure
// function of the module's content and the configuration: `-jobs 1`
// and `-jobs 8` write identical manifests.

// cacheDirName is the per-module cache directory, a sibling of go.mod.
const cacheDirName = ".gompcc-cache"

// manifestName is the manifest file within the cache directory.
const manifestName = "manifest.json"

// manifestVersion is the manifest format version; a reader finding a
// different number discards the file.
const manifestVersion = 2

// Per-file actions recorded in the manifest; the output is the file's
// module-relative path under the mirror root either way.
const (
	actionTransform = "transform" // pragmas lowered, output written
	actionCopy      = "copy"      // verbatim copy written
)

// fileEntry is one file's record: its source hash and what the driver
// did about it.
type fileEntry struct {
	Hash   string `json:"hash"`
	Action string `json:"action"`
}

// manifest is the persisted outcome of one pass.
type manifest struct {
	Version int                  `json:"version"`
	Engine  string               `json:"engine"`
	Flags   string               `json:"flags"`
	Files   map[string]fileEntry `json:"files"`
}

func newManifest(engine, flags string) *manifest {
	return &manifest{Version: manifestVersion, Engine: engine, Flags: flags, Files: map[string]fileEntry{}}
}

// loadManifest reads a previous pass's manifest, returning nil — a
// fully cold cache — when the file is missing, unreadable, malformed,
// or was written by a different engine version or flag set. A corrupt
// cache is never an error: the driver just runs cold and rewrites it.
func loadManifest(path, engine, flags string) *manifest {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var m manifest
	if json.Unmarshal(data, &m) != nil {
		return nil
	}
	if m.Version != manifestVersion || m.Engine != engine || m.Flags != flags {
		return nil
	}
	return &m
}

// lookup is nil-safe: a cold cache simply has no entries.
func (m *manifest) lookup(rel string) (fileEntry, bool) {
	if m == nil {
		return fileEntry{}, false
	}
	e, ok := m.Files[rel]
	return e, ok
}

// save writes the manifest atomically, creating the cache directory on
// first use.
func (m *manifest) save(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "\t")
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, append(data, '\n'), 0o644)
}

// sourceHash is the per-file half of the cache key: a SHA-256 over the
// exact source bytes.
func sourceHash(src []byte) string {
	sum := sha256.Sum256(src)
	return hex.EncodeToString(sum[:])
}
