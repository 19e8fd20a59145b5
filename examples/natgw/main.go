// NAT gateway: the §6 deployment-experience workflow. A NAT data plane
// processes packets going both ways and supports TCP and UDP; network
// engineers break the behaviour into sub-cases, give each a spec with
// base constraints plus test-case-specific constraints, and attach Meissa
// to them ("in this way, it is easy for network engineers without a
// formal method background to attach Meissa to existing test cases").
//
//	go run ./examples/natgw
package main

import (
	"fmt"
	"log"

	meissa "repro"
	"repro/internal/p4"
	"repro/internal/rules"
	"repro/internal/spec"
	"repro/internal/switchsim"
)

const natSrc = `
program natgw;

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
header tcp { bit<16> srcPort; bit<16> dstPort; }
header udp { bit<16> srcPort; bit<16> dstPort; }
metadata {
  bit<1> is_in;
  bit<1> nat_hit;
}

parser prs {
  state start {
    extract(ethernet);
    transition select(ethernet.etherType) {
      0x0800: parse_ipv4;
      default: accept;
    }
  }
  state parse_ipv4 {
    extract(ipv4);
    transition select(ipv4.protocol) {
      6: parse_tcp;
      17: parse_udp;
      default: accept;
    }
  }
  state parse_tcp { extract(tcp); transition accept; }
  state parse_udp { extract(udp); transition accept; }
}

// Inbound: public destination address translated to the private VM.
action nat_in(bit<32> privAddr) {
  ipv4.dstAddr = privAddr;
  meta.is_in = 1;
  meta.nat_hit = 1;
}

// Outbound: private source translated to the public address.
action nat_out(bit<32> pubAddr) {
  ipv4.srcAddr = pubAddr;
  meta.nat_hit = 1;
}

action nat_miss() { mark_drop(); }

table nat_ingress {
  key = { ipv4.dstAddr : exact; }
  actions = { nat_in; nat_miss; }
  default_action = nat_miss();
}

table nat_egress {
  key = { ipv4.srcAddr : exact; }
  actions = { nat_out; nat_miss; }
  default_action = nat_miss();
}

control ing {
  apply {
    if (ipv4.isValid()) {
      if (ipv4.dstAddr == 203.0.113.10) {
        nat_ingress.apply();
      } else {
        nat_egress.apply();
      }
      if (meta.nat_hit == 1) {
        update_checksum(ipv4, checksum);
      }
    } else {
      mark_drop();
    }
  }
}

pipeline ingress { parser = prs; control = ing; }
`

const natRules = `
table nat_ingress {
  ipv4.dstAddr=203.0.113.10 -> nat_in(192.168.1.2);
}
table nat_egress {
  ipv4.srcAddr=192.168.1.2 -> nat_out(203.0.113.10);
}
`

// Six sub-cases: {in, out} × {TCP, UDP, other} — the §6 decomposition
// ("a NAT gateway processes packets going both ways, supports three
// protocols, and thus results in six sub-cases").
const natSpecs = `
spec in_tcp {
  assume ethernet.etherType == 0x0800;
  assume ipv4.protocol == 6;
  assume ipv4.dstAddr == 203.0.113.10;
  expect forwarded;
  expect ipv4.dstAddr == 192.168.1.2;
  expect tcp.srcPort == in.tcp.srcPort;
  expect tcp.dstPort == in.tcp.dstPort;
}

spec in_udp {
  assume ethernet.etherType == 0x0800;
  assume ipv4.protocol == 17;
  assume ipv4.dstAddr == 203.0.113.10;
  expect forwarded;
  expect ipv4.dstAddr == 192.168.1.2;
  expect udp.dstPort == in.udp.dstPort;
}

spec out_tcp {
  assume ethernet.etherType == 0x0800;
  assume ipv4.protocol == 6;
  assume ipv4.srcAddr == 192.168.1.2;
  assume ipv4.dstAddr == 198.51.100.7;
  expect forwarded;
  expect ipv4.srcAddr == 203.0.113.10;
}

spec out_udp {
  assume ethernet.etherType == 0x0800;
  assume ipv4.protocol == 17;
  assume ipv4.srcAddr == 192.168.1.2;
  assume ipv4.dstAddr == 198.51.100.7;
  expect forwarded;
  expect ipv4.srcAddr == 203.0.113.10;
}

spec in_unknown_flow_dropped {
  assume ethernet.etherType == 0x0800;
  assume ipv4.srcAddr == 10.9.9.9;
  assume ipv4.dstAddr == 198.51.100.99;
  expect dropped;
}

spec non_ip_dropped {
  assume ethernet.etherType == 0x86dd;
  expect dropped;
}
`

func main() {
	prog, err := p4.Parse(natSrc)
	if err != nil {
		log.Fatal(err)
	}
	rs, err := rules.Parse(natRules)
	if err != nil {
		log.Fatal(err)
	}
	specs, err := spec.Parse(natSpecs)
	if err != nil {
		log.Fatal(err)
	}

	// Each sub-case is generated and tested on its own, exactly like the
	// engineers' workflow in §6: Meissa contributes the base constraints
	// (a valid IPv4 packet) and full path coverage under the sub-case's
	// test-specific constraints.
	target, err := switchsim.Compile(prog, rs, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, sp := range specs {
		sys, err := meissa.New(prog, rs, []*spec.Spec{sp}, meissa.Options{})
		if err != nil {
			log.Fatal(err)
		}
		gen, err := sys.Generate()
		if err != nil {
			log.Fatal(err)
		}
		rep, err := sys.TestTarget(target, gen)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sub-case %-24s %d templates, %s\n", sp.Name, len(gen.Templates), rep.Summary())
		for _, f := range rep.Failures() {
			fmt.Printf("  FAIL: %v %v %v\n", f.Violations, f.Mismatches, f.ChecksumErrors)
		}
	}
}
