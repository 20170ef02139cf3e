package omp

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"gomp/internal/trace"
)

// Live observability: ServeDebug mounts the runtime's /debug/gomp
// endpoint suite on a background HTTP server, so a serving workload can
// be inspected — worker states, OpenMetrics scrape, on-demand profile
// and timeline windows, imbalance analysis — while it runs. The same
// surface starts automatically when GOMP_DEBUG_ADDR is set and the
// program was built with `gompcc -profile` (see Profile).

// DebugServer is a running debug endpoint server, returned by
// ServeDebug. Close it to stop serving; Addr holds the bound address
// (useful with ":0").
type DebugServer struct {
	// Addr is the listener's resolved address, e.g. "127.0.0.1:46013".
	Addr string

	ln  net.Listener
	srv *http.Server
}

// Close shuts the debug server's listener down. In-flight capture
// windows (/profile, /timeline) finish their window before the
// connection drops.
func (d *DebugServer) Close() error { return d.srv.Close() }

// ServeDebug starts an HTTP server on addr (host:port; use ":0" for an
// ephemeral port) serving the /debug/gomp endpoint suite ("Live
// monitoring" in the package documentation) and the standard Go pprof
// suite under /debug/pprof/, whose CPU profiles carry omp_region/omp_gtid
// labels when region labelling is on (SetProfileLabels, Profile,
// GOMP_PPROF_LABELS=1).
//
// The server runs on a background goroutine until Close. /status,
// /health, /flight and /metrics work without a running profiler; start
// one (omp.Profile, or a windowed ?seconds capture) for region history.
func ServeDebug(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("omp: debug server: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/gomp/", http.StripPrefix("/debug/gomp", trace.Handler()))
	mux.Handle("/debug/gomp", http.RedirectHandler("/debug/gomp/", http.StatusMovedPermanently))
	// The standard pprof suite, mounted explicitly (the net/http/pprof
	// side-effect registration only touches http.DefaultServeMux).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	d := &DebugServer{Addr: ln.Addr().String(), ln: ln, srv: &http.Server{Handler: mux}}
	go d.srv.Serve(ln)
	return d, nil
}
