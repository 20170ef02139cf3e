package driver

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"gomp/internal/core"
)

// The -toolexec entry point: how //omp pragmas work inside a plain
// `go build`, with no generated files checked in and no extra build
// step. The go command, invoked as
//
//	go build -toolexec="gompcc -toolexec" ./...
//
// runs every toolchain tool through gompcc. For compile invocations,
// the Go source arguments are scanned; pragma-bearing files are
// preprocessed into a temporary directory and their argument slots
// rewritten to point there, then the real tool runs. Every other tool
// (link, asm, vet, …) passes straight through. Because the tool's
// file arguments are positional, line numbers, package paths and the
// rest of the command line are untouched.
//
// One requirement on the annotated module: the go command computes the
// build graph from the *original* sources, so a pragma-bearing file
// must already declare the runtime dependency the generated code calls
// into — a blank import,
//
//	import _ "gomp/omp"
//
// the way cgo requires `import "C"`. Without it the compile step has
// no gomp/omp in its importcfg and fails. (Single-file and mirror output
// has no such requirement: it is real files the go command reads
// directly; the package comment compares the three.)

// Toolexec executes argv (tool path first) with pragma-bearing compile
// inputs preprocessed, and returns the tool's exit code.
func Toolexec(argv []string) (int, error) {
	if len(argv) == 0 {
		return 2, fmt.Errorf("toolexec: no tool to run")
	}
	args := argv
	if isCompileTool(argv[0]) {
		tmp, err := os.MkdirTemp("", "gompcc-toolexec")
		if err != nil {
			return 1, err
		}
		defer os.RemoveAll(tmp)
		args, _, err = rewriteCompileArgs(argv, tmp)
		if err != nil {
			return 1, err
		}
	}
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdin = os.Stdin
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode(), nil
		}
		return 1, err
	}
	return 0, nil
}

// isCompileTool recognises the Go compiler by base name, Windows
// suffix included.
func isCompileTool(tool string) bool {
	base := strings.TrimSuffix(filepath.Base(tool), ".exe")
	return base == "compile"
}

// rewriteCompileArgs returns a copy of argv in which every
// pragma-bearing .go argument is replaced by its preprocessed
// counterpart written under tmp, plus how many files were rewritten.
// Pragma-free files — the entire standard library and every dependency
// — cost one read and a sentinel scan each. Distinct argument
// directories map to distinct subdirectories of tmp, so same-named
// files cannot collide.
func rewriteCompileArgs(argv []string, tmp string) ([]string, int, error) {
	out := make([]string, len(argv))
	copy(out, argv)
	rewritten := 0
	for i := 1; i < len(argv); i++ {
		arg := argv[i]
		if !strings.HasSuffix(arg, ".go") || strings.HasPrefix(arg, "-") {
			continue
		}
		src, err := os.ReadFile(arg)
		if err != nil {
			continue // not a real file argument; leave it to the tool
		}
		if !core.ContainsPragma(src) {
			continue
		}
		res, err := core.Transform(src, core.Options{Filename: filepath.ToSlash(arg)})
		if err != nil {
			return nil, rewritten, err
		}
		if !res.Changed {
			continue
		}
		sub := filepath.Join(tmp, fmt.Sprintf("d%02d", rewritten))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, rewritten, err
		}
		dst := filepath.Join(sub, filepath.Base(arg))
		if err := WriteFileAtomic(dst, res.Output, 0o644); err != nil {
			return nil, rewritten, err
		}
		out[i] = dst
		rewritten++
	}
	return out, rewritten, nil
}
