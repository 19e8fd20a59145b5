package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func smokeConfig(t *testing.T, traced bool) runConfig {
	return runConfig{seed: 1, sc: smokeScale(), outDir: t.TempDir(), smoke: true, traced: traced}
}

// TestTimedRunSmoke runs every workload's timed run at smoke size and
// checks what does not depend on the clock: operations attempted and
// passed their output checks, and exactly the end-to-end metrics are
// reported.
func TestTimedRunSmoke(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			res, err := run(w, smokeConfig(t, false))
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted != 2 || res.Failed != 0 || !res.Correct {
				t.Fatalf("attempted %d failed %d correct %v: %v", res.Attempted, res.Failed, res.Correct, res.failures)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("metrics %v, want exactly the end-to-end ones", res.Metrics)
			}
			// Both operations ran the same pieces, and op_s was summed
			// from them (quietSum fails the run otherwise).
			if len(res.PieceTimes) != 2 || len(res.PieceTimes[0]) == 0 || len(res.PieceTimes[0]) != len(res.PieceTimes[1]) {
				t.Errorf("piece times %v, want two operations of the same pieces", res.PieceTimes)
			}
			for _, e := range endToEnd {
				if m, ok := res.Metrics[e.name]; !ok || m.Unit != e.unit {
					t.Errorf("metric %s: got %+v (present %v), want unit %s", e.name, m, ok, e.unit)
				}
			}
		})
	}
}

// TestTracedRunSmoke runs every workload's traced run at smoke size and
// checks counts against expected.json, the span tree's shape, and the
// metric names.
func TestTracedRunSmoke(t *testing.T) {
	expected, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	big := expected[smokeScale().big.key]
	var sweep expect
	for _, in := range smokeScale().small {
		sweep.Templates += expected[in.key].Templates
		sweep.Checks += expected[in.key].Checks
	}
	// The counts each workload's traced operation must report.
	wantCounts := map[string]map[string]float64{
		"gen-gw4-cold":       {"sym.templates": float64(big.Templates), "smt.checks": float64(big.Checks)},
		"gen-small-sweep":    {"sym.templates": float64(sweep.Templates), "smt.checks": float64(sweep.Checks)},
		"regress-gw4-1entry": {"sym.templates": float64(big.Templates), "journal.records": float64(big.Checks), "rulediff.invalid_tags": 1},
		"warm-gw4-store":     {"sym.templates": float64(big.Templates), "smt.checks": 0, "journal.hits": float64(big.Checks)},
		// Calls into a layer that reports no phases: nothing beneath the op.
		"drive-gw4-loopback": {"driver.retransmissions": 0, "trace.attributed_share": 0},
	}
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			rc := smokeConfig(t, true)
			res, err := run(w, rc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted != 4 || res.Failed != 0 {
				t.Fatalf("attempted %d failed %d: %v", res.Attempted, res.Failed, res.failures)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
			}
			for _, def := range perLayer {
				if !metricName.MatchString(def.name) {
					t.Errorf("metric name %q is malformed", def.name)
				}
				if m, ok := res.Metrics[def.name]; !ok || m.Unit != def.unit {
					t.Errorf("metric %s: got %+v (present %v), want unit %s", def.name, m, ok, def.unit)
				}
			}
			for name, want := range wantCounts[w.name] {
				if got := res.Metrics[name].Value; got != want {
					t.Errorf("%s = %v, want %v", name, got, want)
				}
			}
			if share := res.Metrics["trace.attributed_share"].Value; share < 0 || share > 1 {
				t.Errorf("trace.attributed_share = %v, want in [0, 1]", share)
			}

			data, err := os.ReadFile(filepath.Join(rc.outDir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if err := checkSpans(tf.Spans); err != nil {
				t.Error(err)
			}
			ops := 0
			for _, s := range tf.Spans {
				if s.Parent == -1 && s.Name == "op" {
					ops++
				}
			}
			if ops != 2 {
				t.Errorf("%d root op spans, want 2", ops)
			}
		})
	}
}

// TestCheckSpansRejects feeds checkSpans the malformed trees it exists to
// catch.
func TestCheckSpansRejects(t *testing.T) {
	bad := map[string][]span{
		"unclosed":             {{ID: 0, Parent: -1, StartNS: 5, EndNS: -1}},
		"child outside parent": {{ID: 0, Parent: -1, StartNS: 0, EndNS: 10, SelfNS: 0}, {ID: 1, Parent: 0, StartNS: 5, EndNS: 15, SelfNS: 10}},
		"negative self time":   {{ID: 0, Parent: -1, StartNS: 0, EndNS: 10, SelfNS: -1}},
		"parent after child":   {{ID: 0, Parent: 1, StartNS: 0, EndNS: 1, SelfNS: 1}, {ID: 1, Parent: -1, StartNS: 0, EndNS: 1, SelfNS: 1}},
	}
	for name, spans := range bad {
		if checkSpans(spans) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestQuantile pins quantile to Python's statistics.quantiles, whose
// quartiles the driver takes a metric's spread from: range(1, 11) and
// [1, 2] at n=4, and statistics.median.
func TestQuantile(t *testing.T) {
	ten := []float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, c := range []struct {
		vs      []float64
		q, want float64
	}{
		{ten, 0.25, 2.75}, {ten, 0.5, 5.5}, {ten, 0.75, 8.25},
		{[]float64{1, 2}, 0.25, 0.75}, {[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 0.5, 2}, {[]float64{7}, 0.75, 7},
	} {
		if got := quantile(c.vs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.vs, c.q, got, c.want)
		}
	}
}

// TestQuietSum: the shortest time of each piece, added up; operations
// whose pieces do not line up are refused.
func TestQuietSum(t *testing.T) {
	got, err := quietSum([][]float64{{1, 2, 3}, {2, 1, 3}, {4, 4, 4}})
	if err != nil || got != 5 {
		t.Errorf("quietSum = %v, %v, want 5", got, err)
	}
	if _, err := quietSum([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("operations of 2 and 1 pieces: accepted")
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables the program
// reports from: same workloads, same metrics, same units, same order.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, doc.Workloads[i].Name, w.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, e := range endToEnd {
		if doc.EndToEnd[i] != (def{e.name, e.unit}) {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %s/%s in the program", i, doc.EndToEnd[i], e.name, e.unit)
		}
	}
	for i, p := range perLayer {
		if doc.PerLayer[i] != (def{p.name, p.unit}) {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %s/%s in the program", i, doc.PerLayer[i], p.name, p.unit)
		}
	}
}
