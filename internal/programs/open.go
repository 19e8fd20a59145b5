package programs

import (
	"fmt"
	"strings"

	"repro/internal/rules"
)

// commonHeaders is the Ethernet/IPv4/TCP/UDP header block shared by the
// open corpus programs.
const commonHeaders = `
header ethernet {
  bit<48> dstAddr;
  bit<48> srcAddr;
  bit<16> etherType;
}

header ipv4 {
  bit<8>  versionIhl;
  bit<8>  diffserv;
  bit<16> totalLen;
  bit<16> identification;
  bit<16> flagsFrag;
  bit<8>  ttl;
  bit<8>  protocol;
  bit<16> checksum;
  bit<32> srcAddr;
  bit<32> dstAddr;
}

header tcp {
  bit<16> srcPort;
  bit<16> dstPort;
  bit<32> seqNo;
  bit<32> ackNo;
  bit<16> flags;
  bit<16> window;
}

header udp {
  bit<16> srcPort;
  bit<16> dstPort;
  bit<16> length;
  bit<16> checksum;
}
`

// commonParser parses Ethernet → IPv4 → TCP/UDP.
const commonParser = `
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
`

// Router is "a simple router based on switch.p4 that only contains
// layer-3 routing" (Table 1: 256 LOC, 1 pipe, 1 switch).
func Router() *Program {
	src := `program router;
` + commonHeaders + `
metadata {
  bit<9>  egress_port;
  bit<32> nexthop;
}
` + commonParser + `
action set_nexthop(bit<32> nh, bit<9> port) {
  meta.nexthop = nh;
  meta.egress_port = port;
  ipv4.ttl = ipv4.ttl - 1;
}

action route_miss() {
  mark_drop();
}

action rewrite_mac(bit<48> dmac) {
  ethernet.dstAddr = dmac;
}

action rewrite_miss() {
  mark_drop();
}

table ipv4_lpm {
  key = { ipv4.dstAddr : lpm; }
  actions = { set_nexthop; route_miss; }
  default_action = route_miss();
  size = 1024;
}

table nexthop_mac {
  key = { meta.nexthop : exact; }
  actions = { rewrite_mac; rewrite_miss; }
  default_action = rewrite_miss();
  size = 1024;
}

control ing {
  apply {
    if (ipv4.isValid() && ipv4.ttl > 1) {
      ipv4_lpm.apply();
      nexthop_mac.apply();
      update_checksum(ipv4, checksum);
    } else {
      mark_drop();
    }
  }
}

pipeline ingress0 { parser = prs; control = ing; }
`
	rs := rules.NewSet()
	const n = 12
	for i := 1; i <= n; i++ {
		rs.Add("ipv4_lpm", rules.PRule(24, "set_nexthop",
			[]uint64{uint64(i), uint64(i % 8)},
			rules.L("ipv4.dstAddr", uint64(0x0A000000)+uint64(i)<<8, 24)))
		rs.Add("nexthop_mac", rules.Rule("rewrite_mac",
			[]uint64{0x020000000000 + uint64(i)},
			rules.E("meta.nexthop", uint64(i))))
	}
	return finish("Router",
		"A simple router based on switch.p4 that only contains layer-3 routing.",
		src, rs, 1, 1)
}

// MTag reproduces mTag-edge: a host-attached edge switch that inserts and
// removes routing tags (Table 1: 227 LOC, 1 pipe, 1 switch).
func MTag() *Program {
	// Headers are declared in wire order: the implicit deparser emits
	// valid headers in declaration order, and mtag sits between Ethernet
	// and IPv4 on the wire.
	src := `program mtag;
header ethernet {
  bit<48> dstAddr;
  bit<48> srcAddr;
  bit<16> etherType;
}

header mtag {
  bit<8>  up1;
  bit<8>  up2;
  bit<8>  down1;
  bit<8>  down2;
  bit<16> etherType;
}

header ipv4 {
  bit<8>  versionIhl;
  bit<8>  diffserv;
  bit<16> totalLen;
  bit<16> identification;
  bit<16> flagsFrag;
  bit<8>  ttl;
  bit<8>  protocol;
  bit<16> checksum;
  bit<32> srcAddr;
  bit<32> dstAddr;
}

metadata {
  bit<9> egress_port;
  bit<1> from_host;
}

parser prs {
  state start {
    extract(ethernet);
    transition select(ethernet.etherType) {
      0x0800: parse_ipv4;
      0xaaaa: parse_mtag;
      default: accept;
    }
  }
  state parse_mtag {
    extract(mtag);
    transition select(mtag.etherType) {
      0x0800: parse_ipv4;
      default: accept;
    }
  }
  state parse_ipv4 {
    extract(ipv4);
    transition accept;
  }
}

action add_mtag(bit<8> up1, bit<8> up2, bit<8> down1, bit<8> down2, bit<9> port) {
  setValid(mtag);
  mtag.up1 = up1;
  mtag.up2 = up2;
  mtag.down1 = down1;
  mtag.down2 = down2;
  mtag.etherType = ethernet.etherType;
  ethernet.etherType = 0xaaaa;
  meta.egress_port = port;
}

action strip_mtag(bit<9> port) {
  ethernet.etherType = mtag.etherType;
  setInvalid(mtag);
  meta.egress_port = port;
}

action local_switch(bit<9> port) {
  meta.egress_port = port;
}

action no_route() {
  mark_drop();
}

table mtag_up {
  key = { ipv4.dstAddr : lpm; }
  actions = { add_mtag; local_switch; no_route; }
  default_action = no_route();
  size = 512;
}

table mtag_down {
  key = { mtag.down1 : exact; mtag.down2 : exact; }
  actions = { strip_mtag; no_route; }
  default_action = no_route();
  size = 512;
}

control ing {
  apply {
    if (mtag.isValid()) {
      mtag_down.apply();
    } else {
      if (ipv4.isValid()) {
        mtag_up.apply();
      } else {
        mark_drop();
      }
    }
  }
}

pipeline ingress0 { parser = prs; control = ing; }
`
	rs := rules.NewSet()
	const n = 10
	for i := 1; i <= n; i++ {
		rs.Add("mtag_up", rules.PRule(24, "add_mtag",
			[]uint64{uint64(i), uint64(i + 1), uint64(i + 2), uint64(i + 3), uint64(i % 8)},
			rules.L("ipv4.dstAddr", uint64(0x0A010000)+uint64(i)<<8, 24)))
		rs.Add("mtag_down", rules.Rule("strip_mtag",
			[]uint64{uint64(i % 8)},
			rules.E("mtag.down1", uint64(i+2)), rules.E("mtag.down2", uint64(i+3))))
	}
	return finish("mTag",
		"mTag-edge that inserts and removes tags in switches attached to hosts.",
		src, rs, 1, 1)
}

// ACL extends Router with ternary filtering on dst_addr, src_addr and ECN
// (Table 1: 400 LOC, 1 pipe, 1 switch).
func ACL() *Program {
	src := `program acl;
` + commonHeaders + `
metadata {
  bit<9>  egress_port;
  bit<32> nexthop;
  bit<1>  acl_deny;
}
` + commonParser + `
action set_nexthop(bit<32> nh, bit<9> port) {
  meta.nexthop = nh;
  meta.egress_port = port;
  ipv4.ttl = ipv4.ttl - 1;
}

action route_miss() {
  mark_drop();
}

action rewrite_mac(bit<48> dmac) {
  ethernet.dstAddr = dmac;
}

action acl_permit() {
  meta.acl_deny = 0;
}

action acl_deny() {
  meta.acl_deny = 1;
}

table acl_filter {
  key = { ipv4.srcAddr : ternary; ipv4.dstAddr : ternary; ipv4.diffserv : ternary; }
  actions = { acl_permit; acl_deny; }
  default_action = acl_permit();
  size = 512;
}

table ipv4_lpm {
  key = { ipv4.dstAddr : lpm; }
  actions = { set_nexthop; route_miss; }
  default_action = route_miss();
  size = 1024;
}

table nexthop_mac {
  key = { meta.nexthop : exact; }
  actions = { rewrite_mac; route_miss; }
  default_action = route_miss();
  size = 1024;
}

control ing {
  apply {
    if (ipv4.isValid() && ipv4.ttl > 1) {
      acl_filter.apply();
      if (meta.acl_deny == 1) {
        mark_drop();
      } else {
        ipv4_lpm.apply();
        nexthop_mac.apply();
        update_checksum(ipv4, checksum);
      }
    } else {
      mark_drop();
    }
  }
}

pipeline ingress0 { parser = prs; control = ing; }
`
	rs := rules.NewSet()
	const nACL = 6
	for i := 0; i < nACL; i++ {
		act := "acl_permit"
		if i%3 == 0 {
			act = "acl_deny"
		}
		rs.Add("acl_filter", rules.PRule(nACL-i, act, nil,
			rules.T("ipv4.srcAddr", uint64(0xC0A80000)+uint64(i)<<8, 0xFFFFFF00)))
	}
	const n = 10
	for i := 1; i <= n; i++ {
		rs.Add("ipv4_lpm", rules.PRule(24, "set_nexthop",
			[]uint64{uint64(i), uint64(i % 8)},
			rules.L("ipv4.dstAddr", uint64(0x0A000000)+uint64(i)<<8, 24)))
		rs.Add("nexthop_mac", rules.Rule("rewrite_mac",
			[]uint64{0x020000000000 + uint64(i)},
			rules.E("meta.nexthop", uint64(i))))
	}
	return finish("ACL",
		"ACL filtering on dst_addr, src_addr and ECN, based on Router.",
		src, rs, 1, 1)
}

// SwitchP4 is a scaled-down analogue of switch.p4: L2 switching, L3
// routing, ECMP, tunnel termination, ACLs and MPLS-style labels in one
// pipeline (Table 1: 7086 LOC, 1 pipe, 1 switch).
func SwitchP4() *Program {
	var b strings.Builder
	b.WriteString("program switchp4;\n")
	// Declaration order is wire order: the tunnel/tag headers sit between
	// Ethernet and IPv4.
	b.WriteString(`
header ethernet {
  bit<48> dstAddr;
  bit<48> srcAddr;
  bit<16> etherType;
}

header vlan {
  bit<16> vid;
  bit<16> etherType;
}

header mpls {
  bit<32> labelTtl;
}

header ipv4 {
  bit<8>  versionIhl;
  bit<8>  diffserv;
  bit<16> totalLen;
  bit<16> identification;
  bit<16> flagsFrag;
  bit<8>  ttl;
  bit<8>  protocol;
  bit<16> checksum;
  bit<32> srcAddr;
  bit<32> dstAddr;
}

header tcp {
  bit<16> srcPort;
  bit<16> dstPort;
  bit<32> seqNo;
  bit<32> ackNo;
  bit<16> flags;
  bit<16> window;
}

header udp {
  bit<16> srcPort;
  bit<16> dstPort;
  bit<16> length;
  bit<16> checksum;
}

metadata {
  bit<9>  egress_port;
  bit<16> bd;
  bit<32> nexthop;
  bit<16> ecmp_hash;
  bit<1>  l3_routed;
  bit<1>  acl_deny;
  bit<16> vrf;
}

parser prs {
  state start {
    extract(ethernet);
    transition select(ethernet.etherType) {
      0x8100: parse_vlan;
      0x8847: parse_mpls;
      0x0800: parse_ipv4;
      default: accept;
    }
  }
  state parse_vlan {
    extract(vlan);
    transition select(vlan.etherType) {
      0x0800: parse_ipv4;
      default: accept;
    }
  }
  state parse_mpls {
    extract(mpls);
    transition parse_ipv4;
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
`)
	// L2 + L3 + ECMP + ACL actions/tables.
	b.WriteString(`
action set_bd(bit<16> bd, bit<16> vrf) {
  meta.bd = bd;
  meta.vrf = vrf;
}

action bd_miss() {
  mark_drop();
}

action l2_forward(bit<9> port) {
  meta.egress_port = port;
}

action l2_flood() {
  meta.egress_port = 511;
}

action l3_route(bit<32> nh) {
  meta.nexthop = nh;
  meta.l3_routed = 1;
  ipv4.ttl = ipv4.ttl - 1;
}

action l3_miss() {
  meta.l3_routed = 0;
}

action ecmp_select(bit<32> nh) {
  meta.nexthop = nh;
}

action nexthop_set(bit<48> dmac, bit<9> port) {
  ethernet.dstAddr = dmac;
  meta.egress_port = port;
}

action nexthop_glean() {
  mark_drop();
}

action acl_permit() { meta.acl_deny = 0; }
action acl_drop()   { meta.acl_deny = 1; }

action mpls_pop(bit<9> port) {
  setInvalid(mpls);
  ethernet.etherType = 0x0800;
  meta.egress_port = port;
}

action mpls_swap(bit<32> label) {
  mpls.labelTtl = label;
}

table port_bd {
  key = { vlan.vid : exact; }
  actions = { set_bd; bd_miss; }
  default_action = set_bd(1, 1);
  size = 128;
}

table smac_check {
  key = { meta.bd : exact; ethernet.srcAddr : exact; }
  actions = { l2_forward; l2_flood; }
  default_action = l2_flood();
  size = 1024;
}

table dmac_lookup {
  key = { meta.bd : exact; ethernet.dstAddr : exact; }
  actions = { l2_forward; l2_flood; }
  default_action = l2_flood();
  size = 1024;
}

table ipv4_route {
  key = { meta.vrf : exact; ipv4.dstAddr : lpm; }
  actions = { l3_route; l3_miss; }
  default_action = l3_miss();
  size = 2048;
}

table ecmp_group {
  key = { meta.nexthop : exact; meta.ecmp_hash : range; }
  actions = { ecmp_select; }
  default_action = ecmp_select(0);
  size = 256;
}

table nexthop_tbl {
  key = { meta.nexthop : exact; }
  actions = { nexthop_set; nexthop_glean; }
  default_action = nexthop_glean();
  size = 1024;
}

table ingress_acl {
  key = { ipv4.srcAddr : ternary; ipv4.dstAddr : ternary; ipv4.protocol : ternary; }
  actions = { acl_permit; acl_drop; }
  default_action = acl_permit();
  size = 512;
}

table mpls_fib {
  key = { mpls.labelTtl : exact; }
  actions = { mpls_pop; mpls_swap; }
  default_action = mpls_pop(0);
  size = 256;
}

control ing {
  apply {
    if (mpls.isValid()) {
      mpls_fib.apply();
    } else {
      if (vlan.isValid()) {
        port_bd.apply();
      }
      if (ipv4.isValid() && ipv4.ttl > 1) {
        ingress_acl.apply();
        if (meta.acl_deny == 1) {
          mark_drop();
        } else {
          ipv4_route.apply();
          if (meta.l3_routed == 1) {
            hash(meta.ecmp_hash, ipv4.srcAddr, ipv4.dstAddr, ipv4.protocol);
            ecmp_group.apply();
            nexthop_tbl.apply();
            update_checksum(ipv4, checksum);
          } else {
            smac_check.apply();
            dmac_lookup.apply();
          }
        }
      } else {
        if (ipv4.isValid()) {
          mark_drop();
        } else {
          dmac_lookup.apply();
        }
      }
    }
  }
}

pipeline ingress0 { parser = prs; control = ing; }
`)
	rs := rules.NewSet()
	// Correlated rule chains mirroring production structure.
	for i := 1; i <= 6; i++ {
		rs.Add("port_bd", rules.Rule("set_bd", []uint64{uint64(10 + i), uint64(i % 3)}, rules.E("vlan.vid", uint64(i))))
	}
	for i := 1; i <= 8; i++ {
		rs.Add("ipv4_route", rules.PRule(24, "l3_route", []uint64{uint64(i)},
			rules.E("meta.vrf", uint64(i%3)),
			rules.L("ipv4.dstAddr", uint64(0x0A000000)+uint64(i)<<8, 24)))
		rs.Add("nexthop_tbl", rules.Rule("nexthop_set",
			[]uint64{0x02AA00000000 + uint64(i), uint64(i % 16)},
			rules.E("meta.nexthop", uint64(i))))
	}
	for i := 0; i < 4; i++ {
		lo := uint64(i) * 16384
		rs.Add("ecmp_group", rules.Rule("ecmp_select", []uint64{uint64(100 + i)},
			rules.E("meta.nexthop", uint64(1+i)), rules.R("meta.ecmp_hash", lo, lo+16383)))
		rs.Add("nexthop_tbl", rules.Rule("nexthop_set",
			[]uint64{0x02BB00000000 + uint64(i), uint64(16 + i)},
			rules.E("meta.nexthop", uint64(100+i))))
	}
	for i := 0; i < 4; i++ {
		act := "acl_permit"
		if i%2 == 0 {
			act = "acl_drop"
		}
		rs.Add("ingress_acl", rules.PRule(4-i, act, nil,
			rules.T("ipv4.srcAddr", uint64(0xC0000000)+uint64(i)<<16, 0xFFFF0000)))
	}
	for i := 1; i <= 4; i++ {
		rs.Add("dmac_lookup", rules.Rule("l2_forward", []uint64{uint64(i)},
			rules.E("meta.bd", uint64(10+i)), rules.E("ethernet.dstAddr", 0x0CC000000000+uint64(i))))
	}
	for i := 1; i <= 3; i++ {
		rs.Add("mpls_fib", rules.Rule("mpls_swap", []uint64{uint64(1000 + i)},
			rules.E("mpls.labelTtl", uint64(i))))
	}
	return finish("switch.p4",
		"Multifunctional data plane program: L2 switching, L3 routing, ECMP, tunnel, ACLs, MPLS, etc.",
		b.String(), rs, 1, 1)
}

var _ = fmt.Sprintf
