package obs

import (
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"sync"
)

// serveOnce guards handler registration on the default mux (tests may
// call ServeDebug more than once; http.HandleFunc panics on duplicates).
var serveOnce sync.Once

// ServeDebug starts an HTTP server on addr exposing:
//
//	/debug/pprof/   — the standard pprof handlers
//	/metrics        — the registry snapshot as indented JSON
//
// It returns the bound address (useful with ":0") after the listener is
// open; the server runs until the process exits. Live-run observability
// for long explorations — attach `go tool pprof` or curl /metrics while
// a multi-hour generation is in flight.
func ServeDebug(addr string) (string, error) {
	serveOnce.Do(func() {
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := Default().Snapshot().WriteJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	go func() {
		// The zero-value Server uses http.DefaultServeMux, where pprof
		// registered its handlers.
		_ = http.Serve(ln, nil)
	}()
	return ln.Addr().String(), nil
}
