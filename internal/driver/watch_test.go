package driver

import (
	"context"
	"strings"
	"testing"
	"time"
)

// The watch loop: an immediate first pass, then a re-run when — and
// only when — the polled source signature changes.
func TestWatchRerunsOnChange(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{"a.go": pragmaSrc})
	d, err := New(Config{Module: root})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reports := make(chan *Report, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.Watch(ctx, 10*time.Millisecond, func(rep *Report, err error) {
			if err == nil {
				reports <- rep
			}
		})
	}()
	waitReport := func(what string) *Report {
		select {
		case rep := <-reports:
			return rep
		case <-ctx.Done():
			t.Fatalf("timed out waiting for %s", what)
			return nil
		}
	}
	first := waitReport("initial pass")
	if first.Transformed != 1 {
		t.Fatalf("initial pass: %s", first.Summary())
	}
	// An edit triggers a pass that re-transforms exactly the edit. The
	// write also bumps mtime, which is all the poller looks at.
	writeTree(t, root, map[string]string{"a.go": strings.Replace(pragmaSrc, "Sum", "Sum2", 1)})
	second := waitReport("pass after edit")
	if second.Transformed != 1 || second.Cached != 0 {
		t.Fatalf("pass after edit: %s", second.Summary())
	}
	// A new file is a signature change too.
	writeTree(t, root, map[string]string{"b.go": pragmaSrc})
	third := waitReport("pass after new file")
	if third.Transformed != 1 || third.Cached != 1 {
		t.Fatalf("pass after new file: %s", third.Summary())
	}
	cancel()
	<-done
}

// Stable sources produce no further passes: the cache decides what to
// transform, the signature decides whether to run at all.
func TestWatchIdleRunsNothing(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{"a.go": pragmaSrc})
	d, err := New(Config{Module: root})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	passes := make(chan *Report, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.Watch(ctx, time.Millisecond, func(rep *Report, err error) {
			if err == nil {
				passes <- rep
			}
		})
	}()
	<-passes
	time.Sleep(50 * time.Millisecond)
	cancel()
	<-done // a pass still in flight would race the TempDir cleanup
	select {
	case rep := <-passes:
		t.Fatalf("idle watch ran a pass: %s", rep.Summary())
	default:
	}
}
