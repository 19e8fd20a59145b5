// Multiswitch: the Figure 1 scenario. gw-4 spans two switches with four
// pipelines each; flow A stays on switch 0 (ingress0 → egress1 → ingress1
// → egress0) while flow B crosses to switch 1 (ingress0 → egress0, then
// the peer's full path). This example generates full-coverage tests for
// the whole multi-switch program, runs them, and shows the pipeline
// traversal of both flow classes.
//
//	go run ./examples/multiswitch
package main

import (
	"fmt"
	"log"
	"strings"

	meissa "repro"
	"repro/internal/driver"
	"repro/internal/programs"
	"repro/internal/switchsim"
)

func main() {
	p := programs.GW(4, programs.Set1)
	fmt.Printf("%s: %d pipelines across %d switches, %d rules\n",
		p.Name, p.Pipes, p.Switches, p.Rules.Len())

	sys, err := meissa.New(p.Prog, p.Rules, nil, meissa.Options{})
	if err != nil {
		log.Fatal(err)
	}
	gen, err := sys.Generate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d templates; possible paths 10^%.1f reduced to 10^%.1f by code summary\n",
		len(gen.Templates), gen.PossiblePathsLog10Before, gen.PossiblePathsLog10After)

	target, err := switchsim.Compile(p.Prog, p.Rules, nil)
	if err != nil {
		log.Fatal(err)
	}
	link := driver.NewLoopback(target)
	rep, err := sys.Test(link, gen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep.Summary())

	// Show one representative traversal per flow class, reading the
	// pipeline path from the target's execution trace.
	flows := map[string]bool{}
	for _, o := range rep.Outcomes {
		tr := traceFor(target, o)
		if tr == nil || len(tr.Pipelines) == 0 {
			continue
		}
		key := strings.Join(tr.Pipelines, " -> ")
		if flows[key] {
			continue
		}
		flows[key] = true
	}
	fmt.Println("distinct pipeline traversals observed:")
	for k := range flows {
		fmt.Println("  ", k)
	}
}

// traceFor re-injects the case to capture its trace (the loopback link
// only retains the most recent one).
func traceFor(target *switchsim.Target, o *driver.Outcome) *switchsim.Result {
	res, err := target.Inject(o.Case.Entry, o.Case.Wire)
	if err != nil {
		return nil
	}
	return res
}
