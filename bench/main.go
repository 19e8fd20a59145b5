// Command bench is the repository's performance benchmark: five workloads
// over the Table-1 corpus, each run in a process of its own as a closed
// loop of one client, every operation's output checked. See README.md.
//
//	bash bench/run.sh                      every workload, one run each
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash bench/run.sh -selfcheck [-runs N] two interleaved sets of runs, compared
//	bash bench/run.sh -write-expected      regenerate expected.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"repro/internal/obs"
)

var processStart = time.Now()

// The end-to-end metrics, in BENCHMARK.json's order.
var endToEnd = []struct{ name, unit string }{
	{"op_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"},
}

// result is one run of one workload.
type result struct {
	Stamp     stamp             `json:"stamp"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// PieceTimes holds, per timed operation, the seconds each of its
	// pieces took; op_s is summed from them. Only out/result-*.json has it.
	PieceTimes [][]float64 `json:"piece_times_s,omitempty"`
	// samples holds the per-operation values behind a metric, for the
	// human-readable listing.
	samples  map[string][]float64
	failures []string
}

// runConfig is how one run measures.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	sc      scale
	outDir  string
	// smoke caps the run at the workload's smallest size: no warm-ups and
	// two operations, whatever the workload asks for (go test).
	smoke bool
}

func main() {
	name := flag.String("workload", "", "workload to run (default: every workload, one process each)")
	seed := flag.Int64("seed", 1, "seed the workload derives its inputs from")
	seconds := flag.Float64("seconds", 15, "how long the timed phase of a run measures: as many operations as fit at the workload's nominal operation time")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics and out/trace-<workload>.json")
	selfcheck := flag.Bool("selfcheck", false, "run every workload in two sets and compare them against BENCHMARK.json's bounds")
	runs := flag.Int("runs", 3, "with -selfcheck: runs per workload in each set, each with another seed")
	writeExpected := flag.Bool("write-expected", false, "regenerate expected.json from this commit's outputs")
	flag.Parse()

	// Two Ps whatever the machine: one runs the single exploration or
	// driver goroutine, the other the garbage collector's background work.
	runtime.GOMAXPROCS(2)
	obs.SetLogLevel(obs.LevelQuiet)

	err := localTempDir()
	switch {
	case err != nil:
	case *writeExpected:
		err = writeExpectedFile("expected.json")
	case *selfcheck:
		err = selfCheck(*runs, *seed, *seconds)
	case *name == "":
		err = runAll(*seed, *seconds, *trace)
	default:
		err = runOne(*name, runConfig{seed: *seed, seconds: *seconds, traced: *trace != 0, sc: fullScale(), outDir: "out"})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// localTempDir points os.TempDir into out/: a store-backed generation
// keeps its working journal there, and a run must write nothing outside
// the checkout.
func localTempDir() error {
	tmp, err := filepath.Abs(filepath.Join("out", "tmp"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	return os.Setenv("TMPDIR", tmp)
}

// runOne runs the named workload in this process and prints its result;
// the last line of standard output is the result object of the contract.
func runOne(name string, rc runConfig) error {
	var w *workload
	for _, cand := range workloads() {
		if cand.name == name {
			w = cand
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := run(w, rc)
	if err != nil {
		return err
	}
	res.print()
	if err := obs.WriteFileAtomic(filepath.Join(rc.outDir, "result-"+name+".json"), res); err != nil {
		return err
	}
	last, err := json.Marshal(contractResult{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// run sets the workload up and measures it: the timed run for the
// end-to-end metrics, or the traced run for the per-layer ones.
func run(w *workload, rc runConfig) (*result, error) {
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(rc.outDir, "scratch-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	expected, err := loadExpected()
	if err != nil {
		return nil, err
	}
	warmups, timedOps, plainOps, tracedOps := w.warmups, w.timedOps(rc.seconds), w.plainOps, w.tracedOps
	if rc.smoke {
		warmups, timedOps, plainOps, tracedOps = 0, 2, 2, 2
	}

	r, err := w.setup(&env{seed: rc.seed, scratch: scratch, sc: rc.sc, expected: expected, traced: rc.traced})
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	for i := 0; i < warmups; i++ {
		if err := r.op(&clock{}); err != nil {
			return nil, fmt.Errorf("%s: warm-up operation: %w", w.name, err)
		}
	}
	setup := time.Since(processStart)

	res := &result{
		Stamp:   newStamp(w.name, rc.seed, rc.traced, scratch),
		Metrics: map[string]metric{},
		samples: map[string][]float64{},
	}
	if rc.traced {
		err = res.measureTraced(w, r, plainOps, tracedOps, rc.outDir)
	} else {
		err = res.measureTimed(r, timedOps, setup)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// timeOp runs and times one operation. Callers collect garbage first,
// untimed, so that one operation's garbage is not the next one's pause.
func (res *result) timeOp(op func() error) float64 {
	start := time.Now()
	err := op()
	d := time.Since(start).Seconds()
	res.Attempted++
	if err != nil {
		res.Failed++
		res.failures = append(res.failures, err.Error())
	}
	return d
}

// measureTimed is the timed run: n operations back to back, each starting
// from a collected heap whose freed pages went back to the OS and a reset
// resident-set high-water mark, so every operation yields its own time and
// its own peak memory, as a fresh `meissa` process would.
//
// op_s is not the median of the operations' times. The hosts this runs on
// slow a guest down by a quarter for tens of seconds at a time, so one
// run's median and the next one's differ by as much on identical code.
// Contention only ever adds time, and even in a slow spell it lets go for
// milliseconds at a time, so op_s is the time of one operation on a quiet
// machine: the sum, over the operation's pieces, of the shortest time each
// piece took in any operation of the run (README.md has the measurements).
// The listing shows the whole operations' median and range beside it.
func (res *result) measureTimed(r runner, n int, setup time.Duration) error {
	var ops, rss []float64
	var laps [][]float64
	c := &clock{}
	for len(ops) < n {
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return err
		}
		ops = append(ops, res.timeOp(func() error {
			c.start()
			err := r.op(c)
			c.lap() // whatever the operation did after its last piece
			return err
		}))
		laps = append(laps, slices.Clone(c.laps))
		mb, err := peakRSSMB()
		if err != nil {
			return err
		}
		rss = append(rss, mb)
	}
	if res.Failed > 0 {
		// A failed operation stops short of its pieces; the run is
		// reported incorrect and its time is the plain median.
		res.Metrics["op_s"] = metric{median(ops), "s"}
	} else {
		quiet, err := quietSum(laps)
		if err != nil {
			return err
		}
		res.Metrics["op_s"] = metric{quiet, "s"}
	}
	res.PieceTimes = laps
	res.samples["op_s"], res.samples["peak_rss_mb"] = ops, rss
	res.Metrics["setup_s"] = metric{setup.Seconds(), "s"}
	res.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
	return nil
}

// measureTraced alternates plain and traced operations (the workload says
// how many of each), then takes the run's side measurements. The plain
// ones give the process metrics and the yardstick for the tracing
// overhead; the traced ones give the per-layer metrics: the median over
// the operations for a time, the common value for a count, which must
// repeat exactly.
func (res *result) measureTraced(w *workload, r runner, plainOps, tracedOps int, outDir string) error {
	t := newTracer()
	var plain, traced, attributed []float64
	var vals []layerVals
	var proc procSample
	for i := 0; i < max(plainOps, tracedOps); i++ {
		if i < plainOps {
			runtime.GC()
			p0 := readProc()
			plain = append(plain, res.timeOp(func() error { return r.op(&clock{}) }))
			p1 := readProc()
			proc.cpu += p1.cpu - p0.cpu
			proc.alloc += p1.alloc - p0.alloc
			proc.mallocs += p1.mallocs - p0.mallocs
			proc.gcPause += p1.gcPause - p0.gcPause
			proc.heapPeak = max(proc.heapPeak, p1.heapPeak)
		}
		if i < tracedOps {
			v := layerVals{}
			var root int
			runtime.GC()
			res.timeOp(func() (err error) { root, err = r.traced(t, v); return })
			vals = append(vals, v)
			s := t.spans[root]
			traced = append(traced, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	m, err := r.side(t)
	if err != nil {
		return err
	}
	if err := t.finish(); err != nil {
		return err
	}
	for _, s := range t.spans {
		if s.Parent == -1 && s.Name == "op" {
			attributed = append(attributed, t.leafShare(s.ID))
		}
	}

	for name := range vals[0] {
		var vs []float64
		for _, v := range vals {
			vs = append(vs, v[name])
		}
		if exactCounts[name] && slices.Min(vs) != slices.Max(vs) {
			res.Failed++
			res.failures = append(res.failures, fmt.Sprintf("count %s does not repeat between operations: %v", name, vs))
		}
		m[name] = median(vs)
		res.samples[name] = vs
	}
	m.finish()
	fn := float64(plainOps)
	m["proc.cpu_s_per_op"] = proc.cpu.Seconds() / fn
	m["proc.alloc_mb_per_op"] = float64(proc.alloc) / (1 << 20) / fn
	m["proc.mallocs_per_op"] = float64(proc.mallocs) / fn
	m["proc.gc_pause_ms_per_op"] = float64(proc.gcPause) / 1e6 / fn
	m["proc.heap_peak_mb"] = float64(proc.heapPeak) / (1 << 20)
	m["trace.overhead_share"] = (median(traced) - median(plain)) / median(plain)
	m["trace.attributed_share"] = median(attributed)
	res.samples["trace.plain_op_s"], res.samples["trace.traced_op_s"] = plain, traced

	// Every per-layer metric is reported by every workload; one whose
	// layer the workload does not reach reads 0.
	for _, def := range perLayer {
		res.Metrics[def.name] = metric{m[def.name], def.unit}
		delete(m, def.name)
	}
	for name := range m {
		return fmt.Errorf("per-layer value %q is not a metric of the benchmark", name)
	}
	return obs.WriteFileAtomic(filepath.Join(outDir, "trace-"+w.name+".json"),
		traceFile{Stamp: res.Stamp, Metrics: res.Metrics, Spans: t.spans})
}

// print lists every metric by name with its unit and, where it is a
// median, the sample it is the median of; then the failures and the stamp.
func (res *result) print() {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("== %s seed=%d traced=%v ==\n", res.Stamp.Workload, res.Stamp.Seed, res.Stamp.Traced)
	for _, name := range names {
		m := res.Metrics[name]
		line := fmt.Sprintf("%-36s %14.6g %-6s", name, m.Value, m.Unit)
		if vs, ok := res.samples[name]; ok {
			line += " " + sampleLine(vs)
		}
		if name == "op_s" && len(res.PieceTimes) > 0 {
			line += fmt.Sprintf(" median=%.4f pieces=%d", median(res.samples[name]), len(res.PieceTimes[0]))
		}
		fmt.Println(line)
	}
	for _, extra := range []string{"trace.plain_op_s", "trace.traced_op_s"} {
		if vs, ok := res.samples[extra]; ok {
			fmt.Printf("%-36s %14.6g %-6s %s\n", extra, median(vs), "s", sampleLine(vs))
		}
	}
	fmt.Printf("operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, f := range res.failures {
		fmt.Println("FAILED:", f)
	}
	st, _ := json.Marshal(res.Stamp) // a struct of strings, ints and bools always marshals
	fmt.Printf("stamp: %s\n", st)
}
