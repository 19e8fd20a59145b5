package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// SnapshotSchema versions the registry snapshot encoding. Bump on any
// incompatible change so downstream trajectory tooling can dispatch. v2
// dropped the counters section: counts live in the run's structs.
const SnapshotSchema = "meissa.metrics/v2"

// HistogramSnapshot is a point-in-time copy of a Histogram. Buckets maps
// the bucket's upper bound exponent ("2^k", meaning samples in
// [2^(k-1), 2^k)) to its count; zero samples land in "0". Empty buckets
// are omitted.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     uint64            `json:"sum"`
	Max     uint64            `json:"max"`
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

// Mean returns the average sample (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// PhaseDur is one aggregated span path: how many times it ran and its
// total wall-clock.
type PhaseDur struct {
	Name  string `json:"name"`
	NS    int64  `json:"ns"`
	Count uint64 `json:"count,omitempty"`
}

// Dur returns the phase's total duration.
func (p PhaseDur) Dur() time.Duration { return time.Duration(p.NS) }

// Snapshot is a point-in-time copy of a Registry, suitable for JSON
// export and rendering.
type Snapshot struct {
	Schema      string                       `json:"schema"`
	TakenUnixNS int64                        `json:"taken_unix_ns"`
	UptimeNS    int64                        `json:"uptime_ns"`
	Gauges      map[string]int64             `json:"gauges,omitempty"`
	Histograms  map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Phases      []PhaseDur                   `json:"phases,omitempty"`
}

// Snapshot copies the registry's current state. Concurrent-safe; the
// result is per-metric consistent (fine for reporting).
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	phases := make(map[string]*phaseAgg, len(r.phases))
	for k, v := range r.phases {
		phases[k] = v
	}
	start := r.start
	r.mu.Unlock()

	s := &Snapshot{
		Schema:      SnapshotSchema,
		TakenUnixNS: time.Now().UnixNano(),
		UptimeNS:    int64(time.Since(start)),
		Gauges:      map[string]int64{},
		Histograms:  map[string]HistogramSnapshot{},
	}
	for name, g := range gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range hists {
		s.Histograms[name] = snapshotHistogram(h)
	}
	for _, name := range sortedKeys(phases) {
		p := phases[name]
		s.Phases = append(s.Phases, PhaseDur{
			Name:  name,
			NS:    int64(p.totalNS.Load()),
			Count: p.count.Load(),
		})
	}
	return s
}

func snapshotHistogram(h *Histogram) HistogramSnapshot {
	out := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Max:     h.max.Load(),
		Buckets: map[string]uint64{},
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			out.Buckets[bucketLabel(i)] = n
		}
	}
	if len(out.Buckets) == 0 {
		out.Buckets = nil
	}
	return out
}

// bucketLabel names bucket i: "0" for the zero bucket, else "2^i" (the
// exclusive upper bound of the bucket's sample range).
func bucketLabel(i int) string {
	if i == 0 {
		return "0"
	}
	return fmt.Sprintf("2^%d", i)
}

// Quantile estimates the q-th quantile (q in [0,1]) from the log2
// buckets, linearly interpolating within the winning bucket's sample
// range [2^(k-1), 2^k). The zero bucket contributes exact zeros. Good to
// within a factor-of-2 bucket width — the right precision for latency
// reporting off a counters-only histogram.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count-1)
	var cum float64
	for _, label := range sortedBucketLabels(h.Buckets) {
		n := float64(h.Buckets[label])
		if cum+n > rank {
			k := bucketExp(label)
			if k == 0 {
				return 0
			}
			lo := float64(uint64(1) << (k - 1))
			hi := lo * 2
			if hi > float64(h.Max) && float64(h.Max) >= lo {
				// The top occupied bucket cannot exceed the recorded max.
				hi = float64(h.Max)
			}
			frac := (rank - cum) / n
			return lo + frac*(hi-lo)
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
func (h HistogramSnapshot) SummaryQuantiles() *Quantiles {
	if h.Count == 0 {
		return nil
	}
	return &Quantiles{P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99)}
}

// WriteJSON writes the snapshot, indented, to w.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText renders the human-readable end-of-run table: the phase tree
// with durations, then gauges and histogram summaries.
func (s *Snapshot) WriteText(w io.Writer) {
	if len(s.Phases) > 0 {
		fmt.Fprintf(w, "--- phases ---\n")
		for _, p := range s.Phases {
			fmt.Fprintf(w, "  %-40s %12s", p.Name, time.Duration(p.NS).Round(time.Microsecond))
			if p.Count > 1 {
				fmt.Fprintf(w, "  (x%d, avg %s)", p.Count,
					(time.Duration(p.NS) / time.Duration(p.Count)).Round(time.Microsecond))
			}
			fmt.Fprintln(w)
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintf(w, "--- gauges ---\n")
		for _, k := range sortedKeys(s.Gauges) {
			fmt.Fprintf(w, "  %-40s %12d\n", k, s.Gauges[k])
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintf(w, "--- histograms ---\n")
		for _, k := range sortedKeys(s.Histograms) {
			h := s.Histograms[k]
			if h.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-40s n=%d mean=%s max=%s", k, h.Count,
				time.Duration(h.Mean()).Round(time.Nanosecond),
				time.Duration(h.Max).Round(time.Nanosecond))
			if q := h.SummaryQuantiles(); q != nil {
				fmt.Fprintf(w, " p50=%s p90=%s p99=%s",
					time.Duration(q.P50).Round(time.Nanosecond),
					time.Duration(q.P90).Round(time.Nanosecond),
					time.Duration(q.P99).Round(time.Nanosecond))
			}
			fmt.Fprintln(w)
			for _, b := range sortedBucketLabels(h.Buckets) {
				fmt.Fprintf(w, "    %-8s %d\n", b, h.Buckets[b])
			}
		}
	}
}

// sortedBucketLabels orders bucket labels by exponent ("0" first).
func sortedBucketLabels(m map[string]uint64) []string {
	out := sortedKeys(m)
	sort.Slice(out, func(i, j int) bool { return bucketExp(out[i]) < bucketExp(out[j]) })
	return out
}

func bucketExp(label string) int {
	if label == "0" {
		return 0
	}
	var k int
	fmt.Sscanf(label, "2^%d", &k)
	return k
}

// WriteFileAtomic serializes v as indented JSON and atomically replaces
// path: the bytes go to a temp file in the same directory, are synced,
// and renamed over the target, so a crash mid-write can never leave a
// truncated report for trajectory tooling to trip on.
func WriteFileAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal %s: %w", path, err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("obs: write %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("obs: sync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("obs: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("obs: rename %s: %w", tmpName, err)
	}
	// The rename is only durable once the directory entry is: fsync the
	// parent, or a crash right here can lose the replacement while the
	// caller believes it committed.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("obs: sync dir %s: %w", dir, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
