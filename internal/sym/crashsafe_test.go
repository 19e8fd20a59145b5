package sym

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cfg"
	"repro/internal/expr"
	"repro/internal/journal"
	"repro/internal/smt"
)

// pathKey renders a path for comparison across runs.
func pathKey(p []cfg.NodeID) string {
	var b strings.Builder
	for _, id := range p {
		fmt.Fprintf(&b, "%d.", id)
	}
	return b.String()
}

// templateKeys renders every template's content (the renderTemplates
// form), keyed by path and with the ID zeroed: IDs shift when a path is
// skipped.
func templateKeys(res *Result) map[string]string {
	out := make(map[string]string, len(res.Templates))
	for _, tm := range res.Templates {
		c := *tm
		c.ID = 0
		out[pathKey(tm.Path)] = renderTemplates([]*Template{&c})
	}
	return out
}

// TestPanicIsolation injects a panic on one specific completed path and
// checks that exploration finishes with exactly that path missing and
// every other verdict identical, in both sequential and parallel mode.
func TestPanicIsolation(t *testing.T) {
	const n = 8
	clean := explore(t, fig7Src(), fig7Rules(n), DefaultOptions())
	if len(clean.Templates) < 3 {
		t.Fatalf("need at least 3 templates, got %d", len(clean.Templates))
	}
	victim := pathKey(clean.Templates[1].Path)

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Parallelism = workers
			var mu sync.Mutex
			fired := 0
			opts.PathHook = func(path []cfg.NodeID) {
				if pathKey(path) == victim {
					mu.Lock()
					fired++
					mu.Unlock()
					panic("injected path fault")
				}
			}
			res := explore(t, fig7Src(), fig7Rules(n), opts)
			if fired != 1 {
				t.Fatalf("hook fired %d times, want 1", fired)
			}
			if res.Recovered != 1 {
				t.Fatalf("Recovered = %d, want 1", res.Recovered)
			}
			if len(res.PathErrors) != 1 {
				t.Fatalf("PathErrors = %d, want 1", len(res.PathErrors))
			}
			pe := res.PathErrors[0]
			if pe.Value != "injected path fault" {
				t.Errorf("PathError.Value = %v", pe.Value)
			}
			if pathKey(pe.Path) != victim {
				t.Errorf("PathError.Path = %v, want the victim path", pe.Path)
			}
			if pe.Stack == "" {
				t.Error("PathError.Stack is empty")
			}
			if len(res.Templates) != len(clean.Templates)-1 {
				t.Fatalf("templates = %d, want %d", len(res.Templates), len(clean.Templates)-1)
			}
			got := templateKeys(res)
			for k, v := range templateKeys(clean) {
				if k == victim {
					continue
				}
				if got[k] != v {
					t.Errorf("path %s: verdict diverged after recovery", k)
				}
			}
			if _, still := got[victim]; still {
				t.Error("panicked path still produced a template")
			}
		})
	}
}

// TestPanicIsolationMidPath checks that recovery unwinds to the faulted
// frame's mark: after a panic on the first completed descent — deep in one
// subtree, on a prefix shared with everything after it — the remaining
// paths still see the pre-fault solver, value, condition, obligation and
// dependency stacks (templates unchanged in full), in both engines and on
// graphs with hash obligations and table dependencies.
func TestPanicIsolationMidPath(t *testing.T) {
	for _, c := range batchCases() {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				g, conf := c.cfg(t)
				conf.Graph, conf.Options = g, c.opts()
				conf.Options.Parallelism = workers
				clean, err := Explore(conf)
				if err != nil {
					t.Fatal(err)
				}
				var fired atomic.Bool
				conf.Options.PathHook = func([]cfg.NodeID) {
					if fired.CompareAndSwap(false, true) {
						panic("first-path fault")
					}
				}
				res, err := Explore(conf)
				if err != nil {
					t.Fatal(err)
				}
				if res.Recovered != 1 {
					t.Fatalf("Recovered = %d, want 1", res.Recovered)
				}
				if d := len(clean.Templates) - len(res.Templates); d != 0 && d != 1 {
					t.Fatalf("templates = %d, want %d or one fewer", len(res.Templates), len(clean.Templates))
				}
				want := templateKeys(clean)
				for k, v := range templateKeys(res) {
					if want[k] != v {
						t.Errorf("path %s diverged after mid-run recovery:\n%s\nwant:\n%s", k, v, want[k])
					}
				}
			})
		}
	}
}

// TestStrictPropagatesPanic checks that Strict mode restores fail-fast:
// the injected panic escapes Explore.
func TestStrictPropagatesPanic(t *testing.T) {
	opts := DefaultOptions()
	opts.Strict = true
	opts.PathHook = func([]cfg.NodeID) { panic("strict fault") }
	defer func() {
		if r := recover(); r != "strict fault" {
			t.Fatalf("recovered %v, want the injected panic", r)
		}
	}()
	explore(t, fig7Src(), fig7Rules(3), opts)
	t.Fatal("panic did not propagate in Strict mode")
}

// TestUnknownVerdictKeepsPath checks graceful degradation: a solver
// budget too small to decide the path condition yields Unknown, and the
// path is conservatively kept (marked Uncertain), never dropped.
func TestBudgetUnknownKeepsPath(t *testing.T) {
	// One predicate the bounded search cannot decide in a single step.
	g := cfg.NewGraph()
	p := g.AddPredicate(expr.Eq(
		expr.Bin{Op: expr.OpAdd, L: expr.V("a", 16), R: expr.V("b", 16)},
		expr.C(7, 16)), "p", "a + b == 7")
	g.Entry = p.ID
	leaf := g.AddAction("x", expr.C(1, 8), "p", "")
	g.Link(p.ID, leaf.ID)

	opts := DefaultOptions()
	opts.Solver = smt.Options{Incremental: true, SearchBudget: 1, CandidatesPerVar: 1}
	opts.SolverSet = true
	opts.EarlyTermination = false // exercise the final emit check

	res, err := Explore(Config{Graph: g, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Templates) != 1 {
		t.Fatalf("templates = %d, want 1 (Unknown must keep the path)", len(res.Templates))
	}
	if !res.Templates[0].Uncertain {
		t.Error("budget-exhausted verdict should mark the template Uncertain")
	}
	if res.SMT.Unknowns == 0 {
		t.Error("expected an Unknown verdict in solver stats")
	}
	if res.SMT.BudgetExhausted == 0 {
		t.Error("expected BudgetExhausted to count the cut-off query")
	}
}

// TestBudgetSuperset checks the acceptance property: a budget-limited
// run's kept paths are a superset of the unlimited run's.
func TestBudgetSuperset(t *testing.T) {
	const n = 8
	unlimited := explore(t, etSrc, etRules(n), DefaultOptions())

	opts := DefaultOptions()
	opts.Solver = smt.Options{Incremental: true, SearchBudget: 2, CandidatesPerVar: 2}
	opts.SolverSet = true
	limited := explore(t, etSrc, etRules(n), opts)

	kept := map[string]bool{}
	for _, tm := range limited.Templates {
		kept[pathKey(tm.Path)] = true
	}
	for _, tm := range unlimited.Templates {
		if !kept[pathKey(tm.Path)] {
			t.Errorf("unlimited-run path %v missing from budget-limited run", tm.Path)
		}
	}
	if len(limited.Templates) < len(unlimited.Templates) {
		t.Errorf("budget-limited run kept %d paths, unlimited kept %d",
			len(limited.Templates), len(unlimited.Templates))
	}
}

// coldTable explores c cold, journaling, and returns the cold result and a
// verdict table of the records keep holds to: a table with holes, where the
// next miss after a run of hits syncs the whole run.
func coldTable(t *testing.T, c Config, keep func(journal.Entry) bool) (*Result, *journal.Table) {
	t.Helper()
	j := journal.New()
	j.KeepFresh()
	c.Options.Journal = j
	cold, err := Explore(c)
	if err != nil {
		t.Fatal(err)
	}
	table := j.Fresh().Clone()
	table.DeleteFunc(func(e journal.Entry) bool { return !keep(e) })
	return cold, table
}

// adopted returns a journal with no file over table.
func adopted(t *testing.T, table *journal.Table) *journal.Journal {
	t.Helper()
	j := journal.New()
	j.Adopt(table)
	return j
}

// TestPanicDuringSync faults sync between pushing a frame and asserting its
// entry, at every position k a sync's entries can have. The runs answer
// every prune check from a table and no emission, so a leaf syncs the whole
// run of predicate frames above it: the first sync bringing in more than k
// entries is faulted at its k-th, which for k below the last is an
// ancestor's condition, not the faulted frame's own. Recovery must leave the
// solver holding exactly the held entries (checked at every frame any later
// sync pushes) and every other template as the clean run has it; what is
// missing lies under the faulted node.
func TestPanicDuringSync(t *testing.T) {
	defer func() { syncObserver = nil }()
	checksOnly := func(e journal.Entry) bool { return e.Kind() == journal.KindCheck }
	for _, c := range batchCases() {
		g, conf := c.cfg(t)
		conf.Graph, conf.Options = g, c.opts()
		conf.Options.Parallelism = 1
		clean, table := coldTable(t, conf, checksOnly)
		// The most entries one sync brings in: at more workers a runner holds
		// no more of a prefix, so its syncs bring in at least as many.
		most := 0
		syncObserver = func(e *executor, k int) { most = max(most, k+1) }
		conf.Options.Journal = adopted(t, table)
		if _, err := Explore(conf); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			for k := 0; k < most; k++ {
				t.Run(fmt.Sprintf("%s/workers=%d/k=%d", c.name, workers, k), func(t *testing.T) {
					conf := conf
					conf.Options.Parallelism = workers
					conf.Options.Journal = adopted(t, table)
					var fired atomic.Bool
					var torn atomic.Int64
					syncObserver = func(e *executor, i int) {
						if e.solver.Depth() != e.held+1 {
							torn.Add(1)
						}
						if i == k && fired.CompareAndSwap(false, true) {
							panic("sync fault")
						}
					}
					res, err := Explore(conf)
					syncObserver = nil
					if err != nil {
						t.Fatal(err)
					}
					if res.Recovered != 1 || len(res.PathErrors) != 1 || res.PathErrors[0].Value != "sync fault" {
						t.Fatalf("Recovered = %d, PathErrors = %v, want the one sync fault", res.Recovered, res.PathErrors)
					}
					if n := torn.Load(); n != 0 {
						t.Errorf("%d synced frames found the solver's depth off the held count", n)
					}
					faulted := pathKey(res.PathErrors[0].Path)
					got, want := templateKeys(res), templateKeys(clean)
					for key, v := range want {
						have, ok := got[key]
						switch {
						case ok && have != v:
							t.Errorf("path %s diverged after a sync fault:\n%s\nwant:\n%s", key, have, v)
						case !ok && !strings.HasPrefix(key, faulted) && !strings.HasPrefix(faulted, key):
							t.Errorf("path %s lost, outside the faulted node's subtree %s", key, faulted)
						}
					}
					if len(got) > len(want) {
						t.Errorf("%d templates after a sync fault, the clean run has %d", len(got), len(want))
					}
				})
			}
		}
	}
}
