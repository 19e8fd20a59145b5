package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"strconv"
	"sync"
	"time"
)

// publishOnce guards the expvar registration (expvar.Publish panics on
// duplicate names).
var publishOnce sync.Once

// PublishExpvar exposes the Default registry's snapshot as the expvar
// variable "meissa", so /debug/vars (and any expvar scraper) sees live
// metrics. Idempotent.
func PublishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("meissa", expvar.Func(func() any {
			return Default().Snapshot()
		}))
	})
}

// DeltaResponse is one /metrics/delta reply. When Full is set, Snapshot
// is a complete registry snapshot (the client's cursor was zero or
// expired); otherwise it is the delta since the snapshot identified by
// the request cursor. Cursor names the server-side snapshot this reply
// was computed against; pass it back to receive the next delta.
type DeltaResponse struct {
	Cursor   uint64    `json:"cursor"`
	Full     bool      `json:"full"`
	Snapshot *Snapshot `json:"snapshot"`
}

// deltaHistory is the bounded server-side snapshot history backing
// /metrics/delta cursors. Long-poll clients typically alternate between
// two cursors; eight covers stragglers without unbounded memory.
type deltaHistory struct {
	mu    sync.Mutex
	next  uint64
	snaps map[uint64]*Snapshot
	order []uint64
}

const deltaHistorySize = 8

func (h *deltaHistory) get(cursor uint64) *Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.snaps[cursor]
}

func (h *deltaHistory) put(s *Snapshot) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.snaps == nil {
		h.snaps = map[uint64]*Snapshot{}
	}
	h.next++
	h.snaps[h.next] = s
	h.order = append(h.order, h.next)
	for len(h.order) > deltaHistorySize {
		delete(h.snaps, h.order[0])
		h.order = h.order[1:]
	}
	return h.next
}

var deltaHist deltaHistory

// snapshotChanged reports whether two snapshots differ in any counter,
// gauge, or phase count — the cheap comparison the long-poll loop runs
// between full snapshot costs.
func snapshotChanged(a, b *Snapshot) bool {
	if len(a.Counters) != len(b.Counters) || len(a.Gauges) != len(b.Gauges) || len(a.Phases) != len(b.Phases) {
		return true
	}
	for k, v := range a.Counters {
		if b.Counters[k] != v {
			return true
		}
	}
	for k, v := range a.Gauges {
		if b.Gauges[k] != v {
			return true
		}
	}
	for i, p := range a.Phases {
		if b.Phases[i].Count != p.Count || b.Phases[i].Name != p.Name {
			return true
		}
	}
	for k, v := range a.Histograms {
		if b.Histograms[k].Count != v.Count {
			return true
		}
	}
	return false
}

// handleDelta serves /metrics/delta?cursor=N&wait=MS: a long-poll
// streaming protocol over plain HTTP. With a zero or unknown cursor the
// reply is a full snapshot; otherwise the server polls the registry
// (every deltaPollInterval, up to wait milliseconds) until something
// changed relative to the cursor's snapshot, then replies with the
// delta. `meissa top` drives this to mirror a live run.
func handleDelta(w http.ResponseWriter, req *http.Request) {
	cursor, _ := strconv.ParseUint(req.URL.Query().Get("cursor"), 10, 64)
	waitMS, _ := strconv.ParseInt(req.URL.Query().Get("wait"), 10, 64)
	const maxWait = 60 * 1000
	if waitMS < 0 {
		waitMS = 0
	}
	if waitMS > maxWait {
		waitMS = maxWait
	}
	base := deltaHist.get(cursor)
	deadline := time.Now().Add(time.Duration(waitMS) * time.Millisecond)
	const deltaPollInterval = 150 * time.Millisecond
	snap := Default().Snapshot()
	for base != nil && !snapshotChanged(snap, base) && time.Now().Before(deadline) {
		select {
		case <-req.Context().Done():
			return
		case <-time.After(deltaPollInterval):
		}
		snap = Default().Snapshot()
	}
	resp := DeltaResponse{Cursor: deltaHist.put(snap)}
	if base == nil {
		resp.Full = true
		resp.Snapshot = snap
	} else {
		resp.Snapshot = snap.Delta(base)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// serveOnce guards handler registration on the default mux (tests may
// call ServeDebug more than once; http.HandleFunc panics on duplicates).
var serveOnce sync.Once

// ServeDebug starts an HTTP server on addr exposing:
//
//	/debug/vars     — expvar, including the "meissa" registry snapshot
//	/debug/pprof/   — the standard pprof handlers
//	/metrics        — the registry snapshot as indented JSON
//	/metrics/delta  — long-poll snapshot deltas against a cursor
//	/flight         — the process flight recorder's retained events
//
// It returns the bound address (useful with ":0") after the listener is
// open; the server runs until the process exits. Live-run observability
// for long explorations — attach `go tool pprof`, curl /metrics, or run
// `meissa top -addr` while a multi-hour generation is in flight.
func ServeDebug(addr string) (string, error) {
	PublishExpvar()
	serveOnce.Do(func() {
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := Default().Snapshot().WriteJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		http.HandleFunc("/metrics/delta", handleDelta)
		http.HandleFunc("/flight", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(Flight().Events())
		})
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	go func() {
		// The zero-value Server uses http.DefaultServeMux, where expvar
		// and pprof registered their handlers.
		_ = http.Serve(ln, nil)
	}()
	return ln.Addr().String(), nil
}
