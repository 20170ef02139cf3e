package driver

import (
	"context"
	"os"
	"time"
)

// Watch mode: `gompcc -watch` as an incremental build loop. The
// implementation is deliberately poll-based — stat every crawled file
// on an interval and compare (mtime, size) signatures — because the
// container has no inotify-style dependency to lean on and polling is
// portable everywhere Go runs. The poll only decides *when* to run a
// pass; *what* gets re-transformed is always the content-hash cache's
// decision, so a spurious wakeup (touch without change) costs one
// crawl and zero transforms.

// fileSig is one file's cheap change signature.
type fileSig struct {
	mtime int64
	size  int64
}

// signature stats the current eligible file set. Files that vanish
// between crawl and stat simply drop out — the next pass's crawl is
// authoritative.
func signature(cfg Config) (map[string]fileSig, error) {
	files, err := crawl(cfg)
	if err != nil {
		return nil, err
	}
	sigs := make(map[string]fileSig, len(files))
	for _, f := range files {
		if info, err := os.Stat(f.path); err == nil {
			sigs[f.rel] = fileSig{mtime: info.ModTime().UnixNano(), size: info.Size()}
		}
	}
	return sigs, nil
}

func sigsEqual(a, b map[string]fileSig) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// Watch runs one pass immediately, then re-runs whenever the polled
// source signature changes, until ctx is done. Every pass's outcome —
// including pass-level errors, which do not stop the loop — is handed
// to fn. The return value is ctx.Err() once the watch ends.
func (d *Driver) Watch(ctx context.Context, interval time.Duration, fn func(*Report, error)) error {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	// The signature is taken before the pass it describes, here and in the
	// loop: an edit landing while the pass runs (or while fn handles its
	// report) then differs from it and is picked up at the next tick,
	// instead of being absorbed into the baseline and lost.
	last, sigErr := signature(d.cfg)
	if sigErr != nil {
		last = nil
	}
	rep, err := d.Run()
	fn(rep, err)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
		cur, err := signature(d.cfg)
		if err != nil {
			fn(nil, err)
			continue
		}
		if sigsEqual(last, cur) {
			continue
		}
		last = cur
		rep, err := d.Run()
		fn(rep, err)
	}
}
