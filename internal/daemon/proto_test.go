package daemon

import (
	"bytes"
	"strings"
	"testing"
)

func TestProtoRoundTrip(t *testing.T) {
	req := &Request{
		ID: 7, Op: OpGen, Tenant: "t", Family: "gw-1",
		Rules: "rules text",
		Gen:   &GenParams{Parallel: 2, SolverBudget: 100},
	}
	var buf bytes.Buffer
	if err := writeMsg(&buf, req); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 1 || !strings.HasSuffix(buf.String(), "\n") {
		t.Fatalf("message is not exactly one line: %q", buf.String())
	}
	var got Request
	if err := unmarshalStrict(bytes.TrimSpace(buf.Bytes()), &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != 7 || got.Op != OpGen || got.Tenant != "t" || got.Family != "gw-1" ||
		got.Gen == nil || got.Gen.Parallel != 2 || got.Gen.SolverBudget != 100 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestProtoUnknownFieldRejected(t *testing.T) {
	err := unmarshalStrict([]byte(`{"id":1,"op":"gen","bogus":true}`), &Request{})
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

// TestProtoRetiredWorkersRejected: a gen request still asking for shard
// workers is refused by name rather than run in-process as if it had not
// asked.
func TestProtoRetiredWorkersRejected(t *testing.T) {
	err := unmarshalStrict([]byte(`{"id":1,"op":"gen","gen":{"parallel":2,"workers":2}}`), &Request{})
	if err == nil {
		t.Fatal("gen request with workers accepted")
	}
	if !strings.Contains(err.Error(), `"workers"`) {
		t.Fatalf("error does not name the retired field: %v", err)
	}
}

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in, network, address string
		wantErr              bool
	}{
		{"unix:///tmp/d.sock", "unix", "/tmp/d.sock", false},
		{"tcp://127.0.0.1:7600", "tcp", "127.0.0.1:7600", false},
		{"127.0.0.1:7600", "tcp", "127.0.0.1:7600", false},
		{"", "", "", true},
	}
	for _, c := range cases {
		network, address, err := ParseAddr(c.in)
		if (err != nil) != c.wantErr {
			t.Fatalf("ParseAddr(%q) err = %v", c.in, err)
		}
		if network != c.network || address != c.address {
			t.Fatalf("ParseAddr(%q) = %q,%q want %q,%q", c.in, network, address, c.network, c.address)
		}
	}
}
