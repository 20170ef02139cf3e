package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// pins.sha256 (sha256sum format, paths relative to the repository root)
// freezes the denominators the benchmark does not own: the goroutine
// flavours of the NPB kernels and the worker pool under them. A later PR
// that edits one of them would move vs_baseline without touching the
// runtime, so the NPB workloads refuse to run until a benchmark PR
// re-pins. `sha256sum -c benchmark/pins.sha256` checks the same thing.
//
//go:embed pins.sha256
var pinsFile string

func checkPins(root string) error {
	for _, line := range strings.Split(strings.TrimSpace(pinsFile), "\n") {
		want, rel, ok := strings.Cut(line, "  ")
		if !ok {
			return fmt.Errorf("pins.sha256: malformed line %q", line)
		}
		data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(rel)))
		if err != nil {
			return fmt.Errorf("baseline changed — re-baseline in a benchmark PR: %w", err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != want {
			return fmt.Errorf("baseline changed — re-baseline in a benchmark PR: %s no longer matches benchmark/pins.sha256", rel)
		}
	}
	return nil
}
