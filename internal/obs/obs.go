// Package obs is the repo's dependency-light observability layer: gauges,
// log2-bucketed latency histograms, phase spans, and a process-wide
// registry every pipeline layer reports into. It sits below every other
// internal package in the dependency order (it imports only the standard
// library), so the solver, the exploration engine and the driver can all
// instrument their hot paths without import cycles.
//
// Design constraints, in priority order:
//
//   - Hot-path cost: an instrumented site does a handful of atomic adds
//     and zero allocations. Metric handles are resolved once (typically in
//     a package-level var) and then used lock-free; the registry's maps
//     are only touched at handle-resolution time.
//   - One home per count: a count lives in the run's own structs
//     (smt.Stats, sym.Counts, store.Stats, ...), which the run report is
//     built from. The registry holds only what no struct does: latency
//     distributions, live gauges and phase spans.
//   - Determinism friendliness: nothing here feeds back into exploration
//     decisions; disabling or ignoring the registry changes no output
//     byte.
//
// Metric naming scheme (see DESIGN.md "Observability"):
//
//	<package>.<noun>[_<unit>]
//
// e.g. smt.query_latency_ns, driver.case_latency_ns, sym.frontier_tasks.
// Phase timers use slash-separated span paths (generate/summary/ingress0).
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Gauge is an instantaneous atomic value (worker counts, queue depths).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the bucket count of a Histogram: bucket i holds values
// whose bit length is i (i.e. v in [2^(i-1), 2^i)), bucket 0 holds zero.
const histBuckets = 65

// Histogram is a log2-bucketed histogram of uint64 samples (typically
// nanoseconds). Observe is wait-free: one bits.Len64, three atomic adds,
// no allocation — cheap enough for the per-solver-query hot path.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
	// Lock-free max: retry while our sample exceeds the stored value.
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveSince records the nanoseconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(uint64(time.Since(start)))
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// phaseAgg accumulates completed spans sharing one path.
type phaseAgg struct {
	count   atomic.Uint64
	totalNS atomic.Uint64
}

// Registry is a named collection of metrics. One process-wide Default
// registry backs the package-level handle getters; tests that need
// isolation construct their own.
type Registry struct {
	mu     sync.Mutex
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	phases map[string]*phaseAgg
	start  time.Time
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
		phases: map[string]*phaseAgg{},
		start:  time.Now(),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// phase returns (creating if needed) the aggregate for a span path.
func (r *Registry) phase(path string) *phaseAgg {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.phases[path]
	if !ok {
		p = &phaseAgg{}
		r.phases[path] = p
	}
	return p
}

// GetGauge resolves a gauge handle on the Default registry. Intended for
// package-level vars in instrumented packages, so hot paths pay no map
// lookup.
func GetGauge(name string) *Gauge { return defaultRegistry.Gauge(name) }

// GetHistogram resolves a histogram handle on the Default registry.
func GetHistogram(name string) *Histogram { return defaultRegistry.Histogram(name) }

// sortedKeys returns the map's keys in sorted order (snapshot stability).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
