// Package programs provides the data plane program corpus of Table 1 of
// the paper: the open-source programs (Router, mTag, ACL, switch.p4) and
// the production-shaped gateway programs gw-1..gw-4, together with their
// table rule sets: production-shaped set-1..set-4 for the gateways, and
// for the open programs deterministic loops that use no random source
// (§5.1 says random; DESIGN.md lists the deviation).
//
// The gateway generators emit real source text in the repo's P4 subset at
// the same pipeline/switch topology as the paper (gw-1: 1 pipe / 1
// switch, gw-2: 2/1, gw-3: 4/1, gw-4: 8/2) and with the same feature mix
// (VXLAN tunneling, elastic IP mapping, ACLs, routing, standard-switch
// stages). Absolute sizes are scaled down so the benchmark suite runs in
// minutes rather than hours; the relative ordering of Table 1 is
// preserved and the scale factor is a single knob.
package programs

import (
	"fmt"
	"strings"

	"repro/internal/p4"
	"repro/internal/rules"
)

// Program is one corpus entry.
type Program struct {
	Name        string
	Description string
	Source      string
	Prog        *p4.Program
	Rules       *rules.Set
	// Pipes and Switches mirror Table 1.
	Pipes    int
	Switches int
}

// LOC is the program's size in source lines (Table 1's measure).
func (p *Program) LOC() int {
	n := 0
	for _, l := range strings.Split(p.Source, "\n") {
		if strings.TrimSpace(l) != "" {
			n++
		}
	}
	return n
}

// RuleScale selects a table rule set size: set-1..set-4 of §5.1, where
// "set-2 supports twice the number of elastic IPs than that in set-1,
// set-3 twice of that in set-2, and set-4 twice of that in set-3".
type RuleScale int

// Rule set scales.
const (
	Set1 RuleScale = 1 + iota
	Set2
	Set3
	Set4
)

func (s RuleScale) String() string { return fmt.Sprintf("set-%d", int(s)) }

// Base is the elastic IP count of set-1; each subsequent set doubles it
// (§5.1). The default keeps the full benchmark suite in the minutes
// range; raise it to approach the paper's absolute scales (their set-4
// rule file exceeds 200k lines).
var Base = 12

// ElasticIPs returns the elastic IP count for the scale.
func (s RuleScale) ElasticIPs() int {
	n := Base
	for i := Set1; i < s; i++ {
		n *= 2
	}
	return n
}

// finish parses + checks the source and panics on generator bugs: corpus
// programs are build-time artifacts, not user input.
func finish(name, desc, src string, rs *rules.Set, pipes, switches int) *Program {
	prog, err := p4.Parse(src)
	if err != nil {
		panic(fmt.Sprintf("programs: %s does not parse: %v", name, err))
	}
	if err := p4.Check(prog); err != nil {
		panic(fmt.Sprintf("programs: %s does not check: %v", name, err))
	}
	return &Program{
		Name:        name,
		Description: desc,
		Source:      src,
		Prog:        prog,
		Rules:       rs,
		Pipes:       pipes,
		Switches:    switches,
	}
}

// All returns the eight Table 1 corpus programs at the default rule
// scale.
func All() []*Program {
	return []*Program{
		Router(), MTag(), ACL(), SwitchP4(),
		GW(1, Set1), GW(2, Set2), GW(3, Set3), GW(4, Set4),
	}
}
