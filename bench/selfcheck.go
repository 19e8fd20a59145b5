package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// contractResult is the result object a run prints as its last line.
type contractResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// child runs one workload in a process of its own — a run never shares
// heap, caches or a garbage collector with another — waits for it, and
// parses the result object from the last line of its output.
func child(name string, seed int64, seconds float64, trace int, echo bool) (*contractResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	if echo {
		os.Stdout.Write(out.Bytes())
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, runErr)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res contractResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last output line is not a result: %w", name, seed, err)
	}
	return &res, nil
}

// runAll runs every workload once, each in its own process.
func runAll(seed int64, seconds float64, trace int) error {
	var failed []string
	for _, w := range workloads() {
		if _, err := child(w.name, seed, seconds, trace, true); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			failed = append(failed, w.name)
		}
		fmt.Println()
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// loadBounds reads the end-to-end regression bounds from BENCHMARK.json,
// the one place they are fixed.
func loadBounds() (map[string]float64, error) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// selfCheck measures the same code twice and holds the two sets to the
// benchmark's own bounds. A set is, for every workload, `runs` timed runs
// on seeds seed, seed+1, … and one traced run. The sets are interleaved:
// each run of set 1 is followed or preceded by the run of set 2 on the
// same seed, the order flipping from seed to seed, because the machines
// this runs on change speed by a tenth or more for minutes at a time and
// two sets run one after the other would each sit in a phase of their
// own. Per workload × end-to-end metric it prints the two medians and
// their relative gap, which must stay within the metric's bound; with
// four or more runs also each set's spread, which must too, except for
// setup_s. Counts marked exact must be identical in the two traced runs.
func selfCheck(runs int, seed int64, seconds float64) error {
	if runs < 1 {
		return fmt.Errorf("-runs must be at least 1")
	}
	bounds, err := loadBounds()
	if err != nil {
		return err
	}
	type set struct {
		timed  map[string]map[string][]float64 // workload → metric → one value per run
		traced map[string]map[string]metric
	}
	sets := [2]set{}
	for s := range sets {
		sets[s] = set{map[string]map[string][]float64{}, map[string]map[string]metric{}}
	}
	for _, w := range workloads() {
		for s := range sets {
			sets[s].timed[w.name] = map[string][]float64{}
		}
		for i := 0; i < 2*runs; i++ {
			// Pairs (1,2), (2,1), (1,2), …: run i belongs to seed i/2.
			s, sd := (i+i/2)%2, seed+int64(i/2)
			res, err := child(w.name, sd, seconds, 0, false)
			if err != nil {
				return err
			}
			vals := sets[s].timed[w.name]
			for name, m := range res.Metrics {
				vals[name] = append(vals[name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "set %d %s seed %d: op_s %.4f setup_s %.4f peak_rss_mb %.1f\n", s+1, w.name, sd,
				res.Metrics["op_s"].Value, res.Metrics["setup_s"].Value, res.Metrics["peak_rss_mb"].Value)
		}
		for s := range sets {
			res, err := child(w.name, seed, seconds, 1, false)
			if err != nil {
				return err
			}
			sets[s].traced[w.name] = res.Metrics
		}
	}

	var bad []string
	fmt.Printf("%-20s %-12s %12s %12s %8s %8s %8s %8s\n", "workload", "metric", "median 1", "median 2", "gap", "spread1", "spread2", "bound")
	for _, w := range workloads() {
		for _, e := range endToEnd {
			bound, ok := bounds[e.name]
			if !ok {
				return fmt.Errorf("BENCHMARK.json has no end-to-end metric %q", e.name)
			}
			v1, v2 := sets[0].timed[w.name][e.name], sets[1].timed[w.name][e.name]
			m1, m2 := median(v1), median(v2)
			gap := math.Abs(m2-m1) / m1
			line := fmt.Sprintf("%-20s %-12s %12.4f %12.4f %7.2f%%", w.name, e.name, m1, m2, 100*gap)
			if gap > bound {
				bad = append(bad, fmt.Sprintf("%s %s: gap %.2f%% over bound %.0f%%", w.name, e.name, 100*gap, 100*bound))
			}
			for _, vs := range [][]float64{v1, v2} {
				if runs < 4 {
					line += fmt.Sprintf(" %8s", "-")
					continue
				}
				sp := spread(vs)
				line += fmt.Sprintf(" %7.2f%%", 100*sp)
				if sp > bound && e.name != "setup_s" {
					bad = append(bad, fmt.Sprintf("%s %s: spread %.2f%% over bound %.0f%%", w.name, e.name, 100*sp, 100*bound))
				}
			}
			fmt.Printf("%s %7.0f%%\n", line, 100*bound)
		}
		for name := range exactCounts {
			a, b := sets[0].traced[w.name][name].Value, sets[1].traced[w.name][name].Value
			if a != b {
				bad = append(bad, fmt.Sprintf("%s %s: count %v in set 1, %v in set 2", w.name, name, a, b))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(bad, "\n  "))
	}
	checked := "every gap"
	if runs >= 4 {
		checked += " and spread"
	}
	fmt.Printf("selfcheck passed: %s within its bound, every exact count identical\n", checked)
	return nil
}

// writeExpectedFile regenerates expected.json: for every input of both
// scales, what a plain generation at this commit produces.
func writeExpectedFile(path string) error {
	out := map[string]expect{}
	for _, sc := range []scale{fullScale(), smokeScale()} {
		for _, in := range append([]input{sc.big}, sc.small...) {
			if _, done := out[in.key]; done {
				continue
			}
			p := in.build()
			_, _, got, err := generate(p.Prog, p.Rules, seqOptions())
			if err != nil {
				return fmt.Errorf("%s: %w", in.key, err)
			}
			out[in.key] = got
			fmt.Printf("%-12s %6d templates %8d paths %7d checks %s\n", in.key, got.Templates, got.Paths, got.Checks, got.SHA256[:16])
		}
	}
	return obs.WriteFileAtomic(path, out)
}
