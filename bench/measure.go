package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	meissa "repro"
	"repro/internal/cfg"
)

// metric is one named measurement of a result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile of vs as Python's statistics.quantiles
// computes its cut points (the default, exclusive method: position
// q·(n+1) among the order statistics, interpolated linearly and clamped
// to the two nearest when it falls outside them), which is how the driver
// measures a metric's spread; vs need not be sorted.
func quantile(vs []float64, q float64) float64 {
	switch len(vs) {
	case 0:
		return 0
	case 1:
		return vs[0]
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	pos := q * float64(len(s)+1)
	j := min(max(int(pos), 1), len(s)-1)
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// spread is the distance between the first and third quartile as a share
// of the median.
func spread(vs []float64) float64 {
	return (quantile(vs, 0.75) - quantile(vs, 0.25)) / median(vs)
}

// sampleLine renders the distribution of a sample next to its median:
// count, quartiles and range, and from twenty values on the highest
// percentile that still has ten values beyond it.
func sampleLine(vs []float64) string {
	n := len(vs)
	s := fmt.Sprintf("n=%d q1=%.4f q3=%.4f min=%.4f max=%.4f",
		n, quantile(vs, 0.25), quantile(vs, 0.75), slices.Min(vs), slices.Max(vs))
	if n >= 20 {
		p := 100 * (n - 10) / n
		s += fmt.Sprintf(" p%d=%.4f", p, quantile(vs, float64(p)/100))
	}
	return s
}

// clock times the pieces of one operation. A piece is a stretch of the
// operation that does the same work every time the operation runs — one
// input of the sweep, pathsPerPiece path descents of a generation, one
// suite-sized slice of the driven cases — and ends where the workload
// calls lap.
type clock struct {
	last  time.Time
	laps  []float64
	paths int
}

func (c *clock) start() {
	c.laps, c.paths = c.laps[:0], 0
	c.last = time.Now()
}

// lap ends the piece that began at the previous lap, or at start.
func (c *clock) lap() {
	now := time.Now()
	c.laps = append(c.laps, now.Sub(c.last).Seconds())
	c.last = now
}

// pathsPerPiece completed path descents are one piece of a generation:
// gw-4 makes 5 150 of them in 2.5 s, so a piece takes 2 to 30 ms.
const pathsPerPiece = 16

// pieces returns opts with a path hook that ends a piece every
// pathsPerPiece completed path descents. With one exploration worker the
// paths come in the same order every time, so the k-th piece is the same
// work in every operation.
func (c *clock) pieces(opts meissa.Options) meissa.Options {
	opts.PathHook = func([]cfg.NodeID) {
		if c.paths++; c.paths%pathsPerPiece == 0 {
			c.lap()
		}
	}
	return opts
}

// quietSum adds up, piece by piece, the shortest time the piece took in
// any of the operations, whose laps must line up.
func quietSum(ops [][]float64) (float64, error) {
	sum := 0.0
	for k := range ops[0] {
		least := ops[0][k]
		for i, laps := range ops {
			if len(laps) != len(ops[0]) {
				return 0, fmt.Errorf("operation %d ran %d pieces, operation 0 ran %d", i, len(laps), len(ops[0]))
			}
			least = min(least, laps[k])
		}
		sum += least
	}
	return sum, nil
}

// procSample is a point-in-time reading of the process's cumulative
// resource counters; two of them bracket an operation.
type procSample struct {
	cpu      time.Duration
	alloc    uint64
	mallocs  uint64
	gcPause  uint64
	heapPeak uint64
}

func readProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSample{cpu: cpu, alloc: ms.TotalAlloc, mallocs: ms.Mallocs, gcPause: ms.PauseTotalNs, heapPeak: ms.HeapSys}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// resetPeakRSS sets the process's resident-set high-water mark back to
// its current resident set (Linux: writing 5 to /proc/self/clear_refs).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// commit is the checkout's git commit; run.sh sets it when it links the
// program, and it stays "unknown" where the checkout is not a repository.
var commit = "unknown"

// stamp identifies the code and machine a result was measured on.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	ScratchFS  string `json:"scratch_fs"`
	Workload   string `json:"workload"`
	Traced     bool   `json:"traced"`
}

func newStamp(workload string, seed int64, traced bool, scratch string) stamp {
	return stamp{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		ScratchFS:  fsType(scratch),
		Workload:   workload,
		Traced:     traced,
	}
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
