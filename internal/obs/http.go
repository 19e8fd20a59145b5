package obs

import (
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
)

// ServeDebug starts an HTTP server on addr serving the standard pprof
// handlers under /debug/pprof/. It returns the bound address (useful with
// ":0") after the listener is open; the server runs until the process
// exits. Attach `go tool pprof` to a long exploration while it runs; its
// counts and latencies are in the run report it writes at the end.
func ServeDebug(addr string) (string, error) {
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
