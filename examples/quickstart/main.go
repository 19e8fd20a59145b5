// Quickstart: generate full-path-coverage test cases for a small router
// and run them against the reference software target.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	meissa "repro"
	"repro/internal/p4"
	"repro/internal/rules"
	"repro/internal/switchsim"
)

const routerSrc = `
program quickstart_router;

header ethernet {
  bit<48> dstAddr;
  bit<48> srcAddr;
  bit<16> etherType;
}
header ipv4 {
  bit<8>  ttl;
  bit<8>  protocol;
  bit<16> checksum;
  bit<32> srcAddr;
  bit<32> dstAddr;
}
metadata { bit<9> egress_port; }

parser prs {
  state start {
    extract(ethernet);
    transition select(ethernet.etherType) {
      0x0800: parse_ipv4;
      default: accept;
    }
  }
  state parse_ipv4 { extract(ipv4); transition accept; }
}

action forward(bit<9> port) {
  meta.egress_port = port;
  ipv4.ttl = ipv4.ttl - 1;
  update_checksum(ipv4, checksum);
}
action drop_pkt() { mark_drop(); }

table routes {
  key = { ipv4.dstAddr : lpm; }
  actions = { forward; drop_pkt; }
  default_action = drop_pkt();
}

control ing {
  apply {
    if (ipv4.isValid() && ipv4.ttl > 1) {
      routes.apply();
    } else {
      mark_drop();
    }
  }
}

pipeline ingress { parser = prs; control = ing; }
`

const routerRules = `
table routes {
  ipv4.dstAddr=10.1.0.0/16 -> forward(1);
  ipv4.dstAddr=10.2.0.0/16 -> forward(2);
  ipv4.dstAddr=10.2.3.0/24 -> forward(3);
}
`

func main() {
	// 1. Parse the program and rule set.
	prog, err := p4.Parse(routerSrc)
	if err != nil {
		log.Fatal(err)
	}
	rs, err := rules.Parse(routerRules)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Generate test case templates with full path coverage.
	sys, err := meissa.New(prog, rs, nil, meissa.Options{})
	if err != nil {
		log.Fatal(err)
	}
	gen, err := sys.Generate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d templates covering every valid path (possible paths 10^%.1f)\n",
		len(gen.Templates), gen.PossiblePathsLog10Before)

	// 3. Compile the reference target and run the whole suite.
	target, err := switchsim.Compile(prog, rs, nil)
	if err != nil {
		log.Fatal(err)
	}
	report, err := sys.TestTarget(target, gen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report.Summary())

	// 4. Recompile with an injected compiler fault — the checksum engine
	// silently disabled — and watch the same suite fail.
	buggy, err := switchsim.Compile(prog, rs, switchsim.Faults{
		switchsim.ChecksumSkip{Header: "ipv4"},
	})
	if err != nil {
		log.Fatal(err)
	}
	report2, err := sys.TestTarget(buggy, gen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with injected checksum fault: %s\n", report2.Summary())
	if len(report2.Failures()) > 0 {
		f := report2.Failures()[0]
		fmt.Printf("  first failure (case %d): %v %v\n", f.Case.ID, f.Mismatches, f.ChecksumErrors)
	}
}
