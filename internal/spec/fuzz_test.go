package spec_test

import (
	"testing"

	"repro/internal/bugs"
	"repro/internal/packet"
	"repro/internal/programs"
	"repro/internal/spec"
)

// FuzzParseSpec: a spec text from outside — a user's -s file — may be
// rejected, never panic the parser, the translation of its assumes
// against any corpus program, or the check of its expects. Seeded with
// the handwritten specs of the bug scenarios and the NAT example.
func FuzzParseSpec(f *testing.F) {
	for _, sc := range bugs.Scenarios() {
		for _, s := range sc.Specs {
			f.Add(s.String())
		}
	}
	f.Add(`
spec in_tcp {
  assume ethernet.etherType == 0x0800;
  assume ipv4.protocol == 6;
  assume ipv4.dstAddr == 203.0.113.10;
  expect forwarded;
  expect ipv4.dstAddr == 192.168.1.2;
  expect tcp.srcPort == in.tcp.srcPort;
}

spec drop_others {
  assume ipv4.protocol == 47;
  expect dropped;
  expect invalid(tcp);
  expect valid(ipv4);
}
`)
	f.Add("spec x {\n  assume tcp.srcPort > 1000;\n  expect forwarded;\n}\n")
	progs := programs.All()
	f.Fuzz(func(t *testing.T, src string) {
		specs, err := spec.Parse(src)
		if err != nil {
			return
		}
		for _, s := range specs {
			for _, p := range progs {
				_, _ = s.AssumeConstraints(p.Prog)
				s.Check(p.Prog, &packet.Packet{}, &packet.Packet{})
				s.Check(p.Prog, &packet.Packet{}, nil)
			}
		}
	})
}
