// Package obs is the repo's dependency-light observability layer: the
// machine-readable run report, the log2 latency histogram a run's own
// structs carry, and stderr logging. It sits below every other internal
// package in the dependency order (it imports only the standard library),
// so the solver, the exploration engine and the driver can all use it
// without import cycles.
//
// Design constraints, in priority order:
//
//   - One home per measurement: a count, a latency distribution or a phase
//     time lives in the structs of the run that measured it (smt.Stats,
//     sym.Counts, driver.Report, GenResult.Phases, ...), which the run
//     report is built from. Two runs in one process never share one.
//   - Hot-path cost: observing a sample is a few plain adds into the
//     owner's own Histogram — no atomics, no locks, no allocation.
//   - Determinism friendliness: nothing here feeds back into exploration
//     decisions; no output byte depends on it.
//
// GetHistogram is the one process-wide entry left (see Total).
package obs

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// histBuckets is the bucket count of a Histogram: bucket i holds values
// whose bit length is i (i.e. v in [2^(i-1), 2^i)), bucket 0 holds zero.
const histBuckets = 65

// Histogram is a log2-bucketed histogram of uint64 samples (nanoseconds in
// every use). It is a plain value that one goroutine owns — a solver's
// smt.Stats, a driver's Report — and Add merges two of them once their
// goroutines have joined. In a report it reads {count, sum, max, buckets},
// a bucket keyed "0" or "2^k" (the exclusive upper bound of its range) and
// an empty one omitted.
type Histogram struct {
	Count, Sum, Max uint64
	Buckets         [histBuckets]uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.Count++
	h.Sum += v
	h.Max = max(h.Max, v)
	h.Buckets[bits.Len64(v)]++
}

// Add folds o's samples into h.
func (h *Histogram) Add(o *Histogram) {
	h.Count += o.Count
	h.Sum += o.Sum
	h.Max = max(h.Max, o.Max)
	for i, n := range o.Buckets {
		h.Buckets[i] += n
	}
}

// Quantile estimates the q-th quantile (q in [0,1]) from the log2
// buckets, linearly interpolating within the winning bucket's sample
// range [2^(k-1), 2^k). The zero bucket contributes exact zeros. Good to
// within a factor-of-2 bucket width — the right precision for latency
// reporting off a counters-only histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := min(max(q, 0), 1) * float64(h.Count-1)
	var cum float64
	for k, c := range h.Buckets {
		n := float64(c)
		if cum+n > rank {
			if k == 0 {
				return 0
			}
			lo := float64(uint64(1) << (k - 1))
			hi := lo * 2
			if hi > float64(h.Max) && float64(h.Max) >= lo {
				// The top occupied bucket cannot exceed the recorded max.
				hi = float64(h.Max)
			}
			return lo + (rank-cum)/n*(hi-lo)
		}
		cum += n
	}
	return float64(h.Max)
}

// Quantiles is the p50/p90/p99 summary of a latency histogram, in the
// histogram's sample unit (nanoseconds for *_ns histograms).
type Quantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
}

// SummaryQuantiles derives the standard report quantiles, nil when the
// histogram is empty.
func (h *Histogram) SummaryQuantiles() *Quantiles {
	if h.Count == 0 {
		return nil
	}
	return &Quantiles{P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99)}
}

// histJSON is a Histogram's report encoding.
type histJSON struct {
	Count   uint64            `json:"count"`
	Sum     uint64            `json:"sum"`
	Max     uint64            `json:"max"`
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

// MarshalJSON writes the report encoding.
func (h Histogram) MarshalJSON() ([]byte, error) {
	j := histJSON{Count: h.Count, Sum: h.Sum, Max: h.Max, Buckets: map[string]uint64{}}
	for k, n := range h.Buckets {
		if n > 0 {
			label := "0"
			if k > 0 {
				label = fmt.Sprintf("2^%d", k)
			}
			j.Buckets[label] = n
		}
	}
	return json.Marshal(j)
}

// UnmarshalJSON reads the report encoding.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var j histJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*h = Histogram{Count: j.Count, Sum: j.Sum, Max: j.Max}
	for label, n := range j.Buckets {
		k := 0
		if label != "0" {
			if _, err := fmt.Sscanf(label, "2^%d", &k); err != nil || k < 1 || k >= histBuckets {
				return fmt.Errorf("obs: histogram bucket %q", label)
			}
		}
		h.Buckets[k] = n
	}
	return nil
}

// Total is a process-wide sum of latency samples that many goroutines fold
// finished histograms into. Only bench/ reads this (its smt.busy_s, around
// summary.Summarize and sym.Explore calls that return no run report);
// ROADMAP item 1 retires it.
type Total struct{ sum atomic.Uint64 }

// Fold adds a finished histogram's samples.
func (t *Total) Fold(h *Histogram) { t.sum.Add(h.Sum) }

// Sum returns the total of every sample folded so far.
func (t *Total) Sum() uint64 { return t.sum.Load() }

var totals sync.Map // name -> *Total

// GetHistogram returns the process-wide Total named name, creating it on
// first use. Resolve it once, in a package-level var.
func GetHistogram(name string) *Total {
	t, _ := totals.LoadOrStore(name, &Total{})
	return t.(*Total)
}
