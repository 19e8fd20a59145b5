// Package daemon implements the resident verification service behind
// `meissa serve`: one process that owns the open verdict store and an
// in-memory registry of loaded program families, answering generation
// and regression requests from many tenants over a line-delimited-JSON
// API. Warm state — the open store's verdict records, decoded once —
// makes a repeat request for an unchanged family complete with zero live
// solver queries, byte-identical to a cold CLI run.
package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/obs"
)

// Op names a request operation.
const (
	OpLoad    = "load"
	OpGen     = "gen"
	OpRegress = "regress"
	OpStatus  = "status"
	OpUnload  = "unload"
)

// Request is one client request: a single JSON object on one line.
type Request struct {
	// ID is echoed on the response; clients use it to match replies.
	ID uint64 `json:"id"`
	Op string `json:"op"`
	// Tenant names the fair-share queue this request joins (empty =
	// "default"). Requests are scheduled round-robin across tenants.
	Tenant string `json:"tenant,omitempty"`
	// Family names the loaded program family a gen/regress/unload
	// targets. load defaults it to the parsed program's name.
	Family string `json:"family,omitempty"`
	// Program/Rules/Specs are printed source texts (load; Rules also
	// overrides the family's rule set for one gen request).
	Program string `json:"program,omitempty"`
	Rules   string `json:"rules,omitempty"`
	Specs   string `json:"specs,omitempty"`

	Gen     *GenParams     `json:"gen,omitempty"`
	Regress *RegressParams `json:"regress,omitempty"`
}

// GenParams mirrors the `meissa gen` flags that affect a daemon run.
type GenParams struct {
	NoSummary       bool  `json:"no_summary,omitempty"`
	Parallel        int   `json:"parallel,omitempty"`
	Strict          bool  `json:"strict,omitempty"`
	SolverBudget    int   `json:"solver_budget,omitempty"`
	SolverTimeoutNS int64 `json:"solver_timeout_ns,omitempty"`
	// Workers > 1 shards the final pass across subprocess workers (one
	// coordinator at a time, capped by the scheduler).
	Workers int `json:"workers,omitempty"`
}

// RegressParams carries an inline rule delta: the updated rule set text
// replaces the family's committed rules in one atomic store update.
type RegressParams struct {
	// NewRules is the updated rule set (printed form). Required.
	NewRules  string `json:"new_rules"`
	NoSummary bool   `json:"no_summary,omitempty"`
	Parallel  int    `json:"parallel,omitempty"`
}

// Response is one reply: a single JSON object on one line, ID matching
// the request.
type Response struct {
	ID      uint64 `json:"id"`
	OK      bool   `json:"ok"`
	Op      string `json:"op,omitempty"`
	Error   string `json:"error,omitempty"`
	TraceID string `json:"trace_id,omitempty"`

	Load    *LoadResponse    `json:"load,omitempty"`
	Gen     *GenResponse     `json:"gen,omitempty"`
	Regress *RegressResponse `json:"regress,omitempty"`
	Status  *StatusResponse  `json:"status,omitempty"`
}

// LoadResponse acknowledges a family load.
type LoadResponse struct {
	Family   string `json:"family"`
	Replaced bool   `json:"replaced,omitempty"`
}

// GenResponse carries a generation result. Templates is the exact
// deterministic rendering `meissa gen -o` writes — the byte-identity
// currency between warm daemon runs and cold CLI runs.
type GenResponse struct {
	Templates    string      `json:"templates"`
	NumTemplates int         `json:"num_templates"`
	SMTCalls     uint64      `json:"smt_calls"`
	JournalHits  uint64      `json:"journal_hits"`
	WarmHit      bool        `json:"warm_hit"`
	WallNS       int64       `json:"wall_ns"`
	Report       *obs.Report `json:"report,omitempty"`
}

// RegressResponse carries an incremental regression result; Templates
// renders the incremental run's cases (diffable against a cold gen on
// the new rules).
type RegressResponse struct {
	Templates    string      `json:"templates"`
	NumTemplates int         `json:"num_templates"`
	Report       *obs.Report `json:"report,omitempty"`
}

// StatusResponse is the daemon's service-level snapshot.
type StatusResponse struct {
	Addr           string         `json:"addr"`
	UptimeNS       int64          `json:"uptime_ns"`
	RequestsServed uint64         `json:"requests_served"`
	WarmHits       uint64         `json:"warm_hits"`
	StoreConflicts uint64         `json:"store_conflicts"`
	Inflight       int            `json:"inflight"`
	QueueDepth     int            `json:"queue_depth"`
	Families       []FamilyStatus `json:"families"`
}

// FamilyStatus is one loaded family's counters.
type FamilyStatus struct {
	Name      string `json:"name"`
	Gens      uint64 `json:"gens"`
	Regresses uint64 `json:"regresses"`
	WarmHits  uint64 `json:"warm_hits"`
}

// maxLine bounds one protocol line; printed programs and rendered
// template sets ride in JSON strings, so the cap is generous.
const maxLine = 64 << 20

// newLineScanner wraps r in a Scanner sized for protocol lines.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	return sc
}

// unmarshalStrict decodes one protocol line, rejecting unknown fields
// so a client/daemon version skew fails loudly instead of silently
// dropping parameters.
func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// writeMsg emits v as one JSON line.
func writeMsg(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ParseAddr maps a daemon address to (network, address):
// "unix://path" → unix socket; "tcp://host:port" or a bare "host:port"
// → TCP.
func ParseAddr(addr string) (network, address string, err error) {
	switch {
	case strings.HasPrefix(addr, "unix://"):
		return "unix", strings.TrimPrefix(addr, "unix://"), nil
	case strings.HasPrefix(addr, "tcp://"):
		return "tcp", strings.TrimPrefix(addr, "tcp://"), nil
	case addr == "":
		return "", "", fmt.Errorf("daemon: empty address")
	default:
		return "tcp", addr, nil
	}
}
