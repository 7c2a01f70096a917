package wire

import (
	"net"
	"net/http"
	"net/http/pprof"

	"repro/internal/metrics"
)

// DebugHandler returns an HTTP handler exposing a process's live
// observability surface over reg — a cluster's registry, a remote
// client's, a host's:
//
//	/metrics        current metrics snapshot as indented JSON
//	/debug/pprof/   the standard Go profiling endpoints
//
// The mux is built explicitly rather than via net/http/pprof's
// DefaultServeMux side effects, so importing this package never mutates
// global state. It is returned as a concrete *http.ServeMux so layers
// above the runtime (the job scheduler's HTTP API, say) can register
// their own routes beside the runtime's.
func DebugHandler(reg *metrics.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// On failure the headers are already out; nothing useful left to do.
		reg.Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug starts the debug endpoint on addr (e.g. "127.0.0.1:0") and
// returns the bound address and a stop function. The server lives until
// stop is called; it is independent of any cluster's lifecycle so a
// wedged cluster can still be inspected.
func ServeDebug(addr string, reg *metrics.Registry) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: DebugHandler(reg)}
	go srv.Serve(ln)
	return ln.Addr().String(), ln.Close, nil
}
