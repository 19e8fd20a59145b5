package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// cmdTop is the live-run introspection client: it long-polls the debug
// server of a running meissa process (its -pprof-addr) for registry
// deltas, folds them into a local mirror with Snapshot.Merge, and
// renders a terminal dashboard — phase progress, verdict rates,
// journal/store hit rates — refreshed whenever the run's metrics actually
// change.
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:6060", "debug server address of the run to watch (its -pprof-addr)")
	interval := fs.Duration("interval", 2*time.Second, "max long-poll wait per refresh")
	once := fs.Bool("once", false, "print one dashboard frame and exit (no screen redraw)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := "http://" + *addr
	client := &http.Client{Timeout: *interval + 10*time.Second}

	var mirror *obs.Snapshot
	var cursor uint64
	// Previous totals for rate computation.
	var prev map[string]uint64
	var prevAt time.Time
	for {
		d, err := fetchDelta(client, base, cursor, *interval)
		if err != nil {
			return fmt.Errorf("top: %w", err)
		}
		if d.Snapshot != nil {
			if d.Full || mirror == nil {
				mirror = d.Snapshot
			} else {
				mirror.Merge(d.Snapshot)
			}
		}
		cursor = d.Cursor
		now := time.Now()
		var out strings.Builder
		renderTop(&out, mirror, prev, now.Sub(prevAt))
		if !*once {
			fmt.Print("\x1b[H\x1b[2J") // home + clear: redraw in place
		}
		os.Stdout.WriteString(out.String())
		if *once {
			return nil
		}
		if mirror != nil {
			prev = mirror.Counters
			prevAt = now
		}
	}
}

// fetchDelta long-polls /metrics/delta. cursor 0 asks for a full
// snapshot; afterwards the server replies as soon as the registry
// changes (or with an empty delta at the wait deadline).
func fetchDelta(c *http.Client, base string, cursor uint64, wait time.Duration) (*obs.DeltaResponse, error) {
	url := fmt.Sprintf("%s/metrics/delta?cursor=%d&wait=%d", base, cursor, wait.Milliseconds())
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	var d obs.DeltaResponse
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return nil, err
	}
	return &d, nil
}

// rate formats a per-second rate for the counter delta since the last
// frame; "-" before two frames exist.
func rate(cur map[string]uint64, prev map[string]uint64, dt time.Duration, key string) string {
	if prev == nil || dt <= 0 {
		return "-"
	}
	d := cur[key] - prev[key]
	return fmt.Sprintf("%.0f/s", float64(d)/dt.Seconds())
}

func renderTop(w *strings.Builder, s *obs.Snapshot, prev map[string]uint64, dt time.Duration) {
	if s == nil {
		fmt.Fprintln(w, "meissa top: no snapshot yet")
		return
	}
	fmt.Fprintf(w, "meissa top — uptime %v\n\n", time.Duration(s.UptimeNS).Round(time.Second))

	if len(s.Phases) > 0 {
		fmt.Fprintln(w, "phases:")
		for _, p := range s.Phases {
			fmt.Fprintf(w, "  %-12s %8v  x%d\n", p.Name, p.Dur().Round(time.Millisecond), p.Count)
		}
		fmt.Fprintln(w)
	}

	c := s.Counters
	fmt.Fprintln(w, "throughput:")
	fmt.Fprintf(w, "  paths explored  %10d  %8s   pruned %d\n",
		c["sym.paths_explored"], rate(c, prev, dt, "sym.paths_explored"), c["sym.paths_pruned"])
	queries := c["smt.queries_sat"] + c["smt.queries_unsat"] + c["smt.queries_unknown"]
	fmt.Fprintf(w, "  solver queries  %10d  %8s   sat/unsat/unk %d/%d/%d\n",
		queries, rate(c, prev, dt, "smt.queries_sat"),
		c["smt.queries_sat"], c["smt.queries_unsat"], c["smt.queries_unknown"])
	verdicts := c["driver.cases_passed"] + c["driver.cases_failed"] + c["driver.cases_flaky"] + c["driver.cases_lost"]
	if verdicts > 0 {
		fmt.Fprintf(w, "  test verdicts   %10d  %8s   pass/fail/flaky/lost %d/%d/%d/%d\n",
			verdicts, rate(c, prev, dt, "driver.cases_passed"),
			c["driver.cases_passed"], c["driver.cases_failed"], c["driver.cases_flaky"], c["driver.cases_lost"])
	}
	if q, ok := s.Histograms["smt.query_latency_ns"]; ok && q.Count > 0 {
		if qq := q.SummaryQuantiles(); qq != nil {
			fmt.Fprintf(w, "  solver latency  p50=%v p90=%v p99=%v\n",
				time.Duration(qq.P50).Round(time.Microsecond),
				time.Duration(qq.P90).Round(time.Microsecond),
				time.Duration(qq.P99).Round(time.Microsecond))
		}
	}
	fmt.Fprintln(w)

	// Hit rates: solver interactions answered without a live solve.
	if hits, total := c["sym.journal_hits"], c["sym.journal_hits"]+queries; hits > 0 && total > 0 {
		fmt.Fprintf(w, "journal: %d hits (%.1f%% of solver interactions), %d records appended\n",
			hits, 100*float64(hits)/float64(total), c["journal.records_appended"])
	}
	if cacheTotal := c["smt.queries_cache_hit"] + c["smt.cache_misses"]; cacheTotal > 0 {
		fmt.Fprintf(w, "cache: %d hits / %d lookups (%.1f%%)\n",
			c["smt.queries_cache_hit"], cacheTotal,
			100*float64(c["smt.queries_cache_hit"])/float64(cacheTotal))
	}
	if c["store.commits"] > 0 || c["store.records_put"] > 0 {
		fmt.Fprintf(w, "store: %d commits (%d compactions), %d records put, %d tail bytes discarded\n",
			c["store.commits"], c["store.compactions"], c["store.records_put"], c["store.tail_discarded_bytes"])
	}

	if len(s.Gauges) > 0 {
		keys := make([]string, 0, len(s.Gauges))
		for k := range s.Gauges {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintln(w, "\ngauges:")
		for _, k := range keys {
			fmt.Fprintf(w, "  %-24s %d\n", k, s.Gauges[k])
		}
	}
}
