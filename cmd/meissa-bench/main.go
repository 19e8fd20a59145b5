// Command meissa-bench regenerates every table and figure of the paper's
// evaluation section (§5) and prints the same rows/series the paper
// reports.
//
// Usage:
//
//	meissa-bench -exp table1|fig9|fig10|fig11|fig12|table2|all
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, fig9, fig10, fig11, fig12, table2, all")
	budget := flag.Uint64("budget", experiments.Budget, "per-tool work budget: DFS descents per exploration (Aquila: descents plus VCs); past it a cell reads o")
	parallel := flag.Int("parallel", 0, "Meissa exploration workers (0 = GOMAXPROCS, 1 = sequential)")
	flag.Parse()
	experiments.Budget = *budget
	experiments.Parallelism = *parallel

	run := func(name string, f func() error) {
		fmt.Printf("==== %s ====\n", name)
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s regenerated in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("table1") {
		run("Table 1: data plane programs used in evaluation", func() error {
			experiments.WriteTable1(os.Stdout)
			return nil
		})
	}
	if want("fig9") {
		run("Fig. 9: running time on different data plane programs", func() error {
			rows, err := experiments.Fig9()
			if err != nil {
				return err
			}
			experiments.WriteFig9(os.Stdout, rows)
			return nil
		})
	}
	if want("fig10") {
		run("Fig. 10: running time on gw-1/gw-2 under different table rule sets", func() error {
			rows, err := experiments.Fig10()
			if err != nil {
				return err
			}
			experiments.WriteFig10(os.Stdout, rows)
			return nil
		})
	}
	if want("fig11") {
		run("Fig. 11: effectiveness of code summary on different programs", func() error {
			effs, err := experiments.Fig11()
			if err != nil {
				return err
			}
			experiments.WriteSummaryEffects(os.Stdout, "gw-1..gw-4 (a: time, b: SMT calls, c: possible paths)", effs)
			return nil
		})
	}
	if want("fig12") {
		run("Fig. 12: effectiveness of code summary on different rule sets", func() error {
			effs, err := experiments.Fig12()
			if err != nil {
				return err
			}
			experiments.WriteSummaryEffects(os.Stdout, "gw-4 x set-1..set-4 (a: time, b: SMT calls, c: possible paths)", effs)
			return nil
		})
	}
	if want("table2") {
		run("Table 2: bug detection matrix", func() error {
			return experiments.WriteTable2(os.Stdout)
		})
	}
}
