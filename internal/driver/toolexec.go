package driver

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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
// no gomp/omp in its importcfg, and gompcc stops with a diagnostic that
// names the file and the missing import. (Single-file and mirror output
// has no such requirement: it is real files the go command reads
// directly; the package comment compares the three.)
//
// The go command keys its build cache on the compiler's identity, which
// it asks for with `compile -V=full` through the same toolexec wrapper.
// gompcc answers with the compiler's line plus its own identity, so a
// package compiled through gompcc and the same package compiled plainly
// are different cache entries, and neither build reuses the other's
// object.

// Toolexec executes argv (tool path first) with pragma-bearing compile
// inputs preprocessed, and returns the tool's exit code.
func Toolexec(argv []string) (int, error) {
	if len(argv) == 0 {
		return 2, fmt.Errorf("toolexec: no tool to run")
	}
	args := argv
	version := isCompileTool(argv[0]) && len(argv) == 2 && argv[1] == "-V=full"
	if isCompileTool(argv[0]) && !version {
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
	var out bytes.Buffer
	if version {
		cmd.Stdout = &out
	}
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode(), nil
		}
		return 1, err
	}
	if version {
		// The compiler's identity, to which the go command keys every
		// compile's cache entry, with gompcc's added.
		id, err := identity()
		if err != nil {
			return 1, err
		}
		fmt.Println(versionLine(out.String(), id))
	}
	return 0, nil
}

// identity names this gompcc: its engine version and a hash of its
// executable, in a form with no spaces or slashes.
func identity() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return "gompcc=" + strings.ReplaceAll(core.EngineVersion, "/", ".") + "+" + hex.EncodeToString(sum[:8]), nil
}

// versionLine adds id to the compiler's -V=full line in the two forms
// the go command reads: a release line ("compile version go1.24.0"),
// which it takes whole, gets id as one more field; a development line,
// whose last field is "buildID=…" and of which it takes only the text
// after that field's last slash, gets id appended to that field.
func versionLine(line, id string) string {
	line = strings.TrimSpace(line)
	f := strings.Fields(line)
	if len(f) > 0 && strings.HasPrefix(f[len(f)-1], "buildID=") {
		return line + "+" + id
	}
	return line + " " + id
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
// files cannot collide. A transformed file in a compile whose importcfg
// lacks gomp/omp is an error naming the file and the import it needs.
func rewriteCompileArgs(argv []string, tmp string) ([]string, int, error) {
	out := make([]string, len(argv))
	copy(out, argv)
	rewritten := 0
	importcfg := ""
	for i := 1; i+1 < len(argv); i++ {
		if argv[i] == "-importcfg" {
			importcfg = argv[i+1]
		}
	}
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
		if err := importsRuntime(importcfg, arg); err != nil {
			return nil, rewritten, err
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

// importsRuntime reports an error naming file unless the compile's
// importcfg (none: nothing to check) maps gomp/omp, the package the
// transformed file calls.
func importsRuntime(importcfg, file string) error {
	if importcfg == "" {
		return nil
	}
	cfg, err := os.ReadFile(importcfg)
	if err != nil {
		return err
	}
	for _, line := range bytes.Split(cfg, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("packagefile gomp/omp=")) {
			return nil
		}
	}
	return fmt.Errorf("%s: //omp pragmas call gomp/omp, which this package does not import: add import _ \"gomp/omp\"", file)
}
