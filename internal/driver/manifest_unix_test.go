//go:build unix

package driver

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// pausedPass runs d's pass over a module whose last file is the FIFO fifo.
// Once the pass opens the FIFO to read it, with every other output written,
// pausedPass calls check, then feeds the FIFO plainSrc and returns the
// pass's report.
func pausedPass(t *testing.T, d *Driver, fifo string, check func()) *Report {
	t.Helper()
	type result struct {
		rep *Report
		err error
	}
	ran := make(chan result, 1)
	go func() {
		rep, err := d.Run()
		ran <- result{rep, err}
	}()
	type opened struct {
		f   *os.File
		err error
	}
	writer := make(chan opened, 1)
	go func() {
		f, err := os.OpenFile(fifo, os.O_WRONLY, 0) // returns once a reader opens it
		writer <- opened{f, err}
	}()
	select {
	case w := <-writer:
		if w.err != nil {
			t.Fatal(w.err)
		}
		check()
		_, err := w.f.WriteString(plainSrc)
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
	case r := <-ran:
		t.Fatalf("the pass ended before reading the FIFO: %v", r.err)
	case <-time.After(30 * time.Second):
		t.Fatal("the pass never opened the FIFO")
	}
	select {
	case r := <-ran:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if err := r.rep.Err(); err != nil {
			t.Fatal(err)
		}
		return r.rep
	case <-time.After(30 * time.Second):
		t.Fatal("the pass did not finish once the FIFO was fed")
	}
	return nil
}

// Outputs are written in place, so a pass must not leave a manifest that
// vouches for them until its last write is done. The second pass below
// writes a.go's new output, then blocks reading zz.go, a FIFO: caught
// there, as a crash would catch it, it must have removed the manifest the
// first pass saved, and it must save a new one once it finishes.
func TestInterruptedPassLeavesNoManifest(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{"a.go": pragmaSrc})
	fifo := filepath.Join(root, "zz.go")
	if err := syscall.Mkfifo(fifo, 0o644); err != nil {
		t.Skipf("no FIFOs here: %v", err)
	}
	cfg := Config{Module: root, OutDir: t.TempDir(), Jobs: 1}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(root, cacheDirName, manifestName)
	pausedPass(t, d, fifo, func() {})
	if _, err := os.Stat(manifestPath); err != nil {
		t.Fatalf("the priming pass saved no manifest: %v", err)
	}

	writeTree(t, root, map[string]string{"a.go": strings.Replace(pragmaSrc, "Sum", "Total", 1)})
	rep := pausedPass(t, d, fifo, func() {
		if got, err := os.ReadFile(filepath.Join(cfg.OutDir, "a.go")); err != nil || !bytes.Contains(got, []byte("func Total")) {
			t.Errorf("a.go's new output is not written yet: %q, %v", got, err)
		}
		if _, err := os.Stat(manifestPath); err == nil {
			t.Error("the previous manifest is still there while the pass writes outputs")
		}
	})
	if rep.Transformed != 1 || rep.Cached != 1 {
		t.Errorf("pass: %s; want a.go transformed and zz.go cached", rep.Summary())
	}
	if _, err := os.Stat(manifestPath); err != nil {
		t.Fatalf("the finished pass saved no manifest: %v", err)
	}
}
