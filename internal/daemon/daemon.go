package daemon

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	meissa "repro"
	"repro/internal/cfg"
	"repro/internal/obs"
	"repro/internal/p4"
	"repro/internal/rules"
	"repro/internal/spec"
	"repro/internal/store"
)

// Daemon metric names in the process obs registry.
var (
	mRequests  = obs.GetCounter("daemon.requests")
	mWarmHits  = obs.GetCounter("daemon.warm_hits")
	mConflicts = obs.GetCounter("daemon.store_conflicts")
	gFamilies  = obs.GetGauge("daemon.families")
	gInflight  = obs.GetGauge("daemon.inflight")
	gQueue     = obs.GetGauge("daemon.queue_depth")
)

// Config configures a resident daemon.
type Config struct {
	// Addr is the listen address: "unix://path", "tcp://host:port", or a
	// bare "host:port".
	Addr string
	// StorePath is the disk-backed verdict store the daemon owns for its
	// lifetime; every family's verdicts live in (and warm from) it.
	StorePath string
	// StoreWait bounds the wait for the store's advisory lock at startup
	// (another daemon or CLI run may hold it briefly). Zero fails fast
	// with store.ErrStoreBusy.
	StoreWait time.Duration
	// MaxConcurrent caps concurrently executing requests (min 1,
	// default 2).
	MaxConcurrent int
	// DrainTimeout bounds Shutdown's wait for in-flight requests
	// (default 30s).
	DrainTimeout time.Duration
	// SlowRequest, when > 0, sleeps that long inside every gen/regress
	// request after its execution slot is acquired — a fault-injection
	// knob so crash tests can kill the daemon mid-request. Zero in
	// production.
	SlowRequest time.Duration
}

// family is one loaded program family: its parsed inputs and request
// counters. What makes a repeat request cheap is not kept here: the open
// store holds the family's verdicts, decoded once. The scheduler
// serializes all requests touching one family, so fields need no lock of
// their own.
type family struct {
	name  string
	prog  *p4.Program
	rules *rules.Set
	specs []*spec.Spec

	gens      atomic.Uint64
	regresses atomic.Uint64
	warmHits  atomic.Uint64
}

// Daemon is the resident verification service: one open store, a
// registry of warm families, and a fair-share request scheduler behind
// a line-delimited-JSON listener.
type Daemon struct {
	cfg   Config
	st    *store.Store
	sched *sched
	start time.Time

	network string // resolved from cfg.Addr
	address string
	ln      net.Listener

	mu       sync.Mutex // guards families
	families map[string]*family

	drainMu  sync.Mutex // guards draining + reqWG.Add pairing
	draining bool
	reqWG    sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	requests       atomic.Uint64
	warmHits       atomic.Uint64
	storeConflicts atomic.Uint64
}

// testPathHook, set by in-package tests only, is handed to every gen as
// Options.PathHook to inject path faults.
var testPathHook func([]cfg.NodeID)

// New opens the daemon's store (waiting up to cfg.StoreWait for the
// advisory lock) and prepares the service. The caller must Listen and
// Serve, then Shutdown to release the store.
func New(cfg Config) (*Daemon, error) {
	if cfg.StorePath == "" {
		return nil, fmt.Errorf("daemon: no store path configured")
	}
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = 2
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	network, address, err := ParseAddr(cfg.Addr)
	if err != nil {
		return nil, err
	}
	st, err := store.Open(cfg.StorePath, store.Options{LockWait: cfg.StoreWait})
	if err != nil {
		return nil, fmt.Errorf("daemon: open store: %w", err)
	}
	return &Daemon{
		cfg:      cfg,
		st:       st,
		sched:    newSched(cfg.MaxConcurrent),
		start:    time.Now(),
		network:  network,
		address:  address,
		families: map[string]*family{},
		conns:    map[net.Conn]struct{}{},
	}, nil
}

// Listen binds the service address. A stale unix socket left by a
// killed daemon is removed first — the store's advisory lock, not the
// socket file, is what guards against two live daemons.
func (d *Daemon) Listen() error {
	if d.network == "unix" {
		if _, err := os.Stat(d.address); err == nil {
			_ = os.Remove(d.address)
		}
	}
	ln, err := net.Listen(d.network, d.address)
	if err != nil {
		return fmt.Errorf("daemon: listen %s: %w", d.cfg.Addr, err)
	}
	d.ln = ln
	return nil
}

// Addr returns the bound address in redialable form (resolves ":0").
func (d *Daemon) Addr() string {
	if d.ln == nil {
		return d.cfg.Addr
	}
	if d.network == "unix" {
		return "unix://" + d.ln.Addr().String()
	}
	return "tcp://" + d.ln.Addr().String()
}

// Serve accepts connections until Shutdown closes the listener. It
// installs the daemon's /fleet view for its duration.
func (d *Daemon) Serve() error {
	if d.ln == nil {
		if err := d.Listen(); err != nil {
			return err
		}
	}
	obs.SetFleetSource(d.view)
	defer obs.SetFleetSource(nil)
	obs.Infof("meissa: daemon serving on %s (store %s)", d.Addr(), d.cfg.StorePath)
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			d.drainMu.Lock()
			draining := d.draining
			d.drainMu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		d.connMu.Lock()
		d.conns[conn] = struct{}{}
		d.connMu.Unlock()
		go d.serveConn(conn)
	}
}

// Shutdown drains the daemon: stop accepting, let in-flight requests
// finish (bounded by DrainTimeout), then close every connection and
// the store. Safe to call once.
func (d *Daemon) Shutdown() error {
	d.drainMu.Lock()
	if d.draining {
		d.drainMu.Unlock()
		return nil
	}
	d.draining = true
	d.drainMu.Unlock()

	if d.ln != nil {
		_ = d.ln.Close()
	}
	done := make(chan struct{})
	go func() {
		d.reqWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d.cfg.DrainTimeout):
		obs.Warnf("meissa: daemon drain timeout after %v; closing connections with requests in flight", d.cfg.DrainTimeout)
	}
	d.sched.Close()
	d.connMu.Lock()
	for c := range d.conns {
		_ = c.Close()
	}
	d.conns = map[net.Conn]struct{}{}
	d.connMu.Unlock()
	return d.st.Close()
}

// beginReq pairs the draining check with the WaitGroup add so Shutdown
// cannot miss a request that was admitted concurrently.
func (d *Daemon) beginReq() bool {
	d.drainMu.Lock()
	defer d.drainMu.Unlock()
	if d.draining {
		return false
	}
	d.reqWG.Add(1)
	return true
}

// serveConn reads one JSON request per line and writes one JSON
// response per line, in order, until the peer hangs up or the daemon
// drains.
func (d *Daemon) serveConn(conn net.Conn) {
	defer func() {
		d.connMu.Lock()
		delete(d.conns, conn)
		d.connMu.Unlock()
		_ = conn.Close()
	}()
	sc := newLineScanner(conn)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var req Request
		if err := unmarshalStrict(line, &req); err != nil {
			_ = writeMsg(conn, &Response{OK: false, Error: fmt.Sprintf("bad request: %v", err)})
			continue
		}
		if !d.beginReq() {
			_ = writeMsg(conn, &Response{ID: req.ID, OK: false, Op: req.Op, Error: "daemon draining"})
			return
		}
		resp := d.handle(&req)
		// The write happens before Done so Shutdown's drain cannot close
		// the connection between computing a response and delivering it.
		werr := writeMsg(conn, resp)
		d.reqWG.Done()
		if werr != nil {
			return
		}
	}
}

// handle dispatches one request. Every response carries the request ID
// and op; failures carry the error text. A panic while serving (a Strict
// generation re-raises path panics by design) fails that one request: the
// daemon holds every tenant's warm state and must outlive it.
func (d *Daemon) handle(req *Request) (resp *Response) {
	resp = &Response{ID: req.ID, Op: req.Op, TraceID: obs.NewTraceID()}
	defer func() {
		if r := recover(); r != nil {
			obs.Warnf("daemon: %s request %d panicked: %v\n%s", req.Op, req.ID, r, debug.Stack())
			resp = &Response{ID: req.ID, Op: req.Op, TraceID: resp.TraceID, Error: fmt.Sprintf("internal error: panic: %v", r)}
		}
	}()
	var err error
	switch req.Op {
	case OpLoad:
		err = d.handleLoad(req, resp)
	case OpGen:
		err = d.handleGen(req, resp)
	case OpRegress:
		err = d.handleRegress(req, resp)
	case OpStatus:
		err = d.handleStatus(resp)
	case OpUnload:
		err = d.handleUnload(req, resp)
	default:
		err = fmt.Errorf("unknown op %q", req.Op)
	}
	if err != nil {
		resp.Error = err.Error()
		if errors.Is(err, store.ErrStoreBusy) || errors.Is(err, store.ErrWedged) {
			d.storeConflicts.Add(1)
			mConflicts.Inc()
		}
		return resp
	}
	resp.OK = true
	return resp
}

// lookup returns the named family, which must be loaded.
func (d *Daemon) lookup(name string) (*family, error) {
	if name == "" {
		return nil, fmt.Errorf("missing family")
	}
	d.mu.Lock()
	fam := d.families[name]
	d.mu.Unlock()
	if fam == nil {
		return nil, fmt.Errorf("family %q not loaded", name)
	}
	return fam, nil
}

// handleLoad parses the request's source texts and installs (or
// replaces) the family. The store is not touched: warming happens lazily
// on the family's first gen.
func (d *Daemon) handleLoad(req *Request, resp *Response) error {
	if req.Program == "" {
		return fmt.Errorf("load: missing program text")
	}
	prog, err := p4.Parse(req.Program)
	if err != nil {
		return fmt.Errorf("load: program: %w", err)
	}
	rs := rules.NewSet()
	if req.Rules != "" {
		if rs, err = rules.Parse(req.Rules); err != nil {
			return fmt.Errorf("load: rules: %w", err)
		}
	}
	var specs []*spec.Spec
	if req.Specs != "" {
		if specs, err = spec.Parse(req.Specs); err != nil {
			return fmt.Errorf("load: specs: %w", err)
		}
	}
	name := req.Family
	if name == "" {
		name = prog.Name
	}
	// Serialize against in-flight requests on the same family so a
	// replace never swaps state under a running generation.
	release, err := d.sched.Acquire(req.Tenant, name)
	if err != nil {
		return err
	}
	defer release()
	fam := &family{name: name, prog: prog, rules: rs, specs: specs}
	d.mu.Lock()
	_, replaced := d.families[name]
	d.families[name] = fam
	gFamilies.Set(int64(len(d.families)))
	d.mu.Unlock()
	d.count()
	resp.Load = &LoadResponse{Family: name, Replaced: replaced}
	return nil
}

// handleGen runs one generation for a loaded family against the
// daemon's store. Repeat requests for an unchanged family are answered
// entirely from warm state: the store materializes a resume journal, so
// the run needs zero live solver queries and the rendered templates are
// byte-identical to a cold CLI run.
func (d *Daemon) handleGen(req *Request, resp *Response) error {
	fam, err := d.lookup(req.Family)
	if err != nil {
		return err
	}
	params := req.Gen
	if params == nil {
		params = &GenParams{}
	}
	reqStart := time.Now()
	release, err := d.sched.Acquire(req.Tenant, fam.name)
	if err != nil {
		return err
	}
	defer release()
	queueWait := time.Since(reqStart)
	d.slowdown()

	rs := fam.rules
	if req.Rules != "" {
		if rs, err = rules.Parse(req.Rules); err != nil {
			return fmt.Errorf("gen: rules: %w", err)
		}
	}

	opts := meissa.DefaultOptions()
	opts.CodeSummary = !params.NoSummary
	opts.Parallelism = params.Parallel
	opts.Strict = params.Strict
	opts.PathHook = testPathHook
	opts.SolverSearchBudget = params.SolverBudget
	opts.SolverCheckTimeout = time.Duration(params.SolverTimeoutNS)
	opts.Store = d.st

	sys, err := meissa.New(fam.prog, rs, fam.specs, opts)
	if err != nil {
		return err
	}
	gen, err := sys.Generate()
	if err != nil {
		return err
	}
	// The store transaction committed; the override rules are now the
	// family's rules.
	fam.rules = rs
	fam.gens.Add(1)

	warm := gen.Store != nil && gen.Store.Warmed > 0 && gen.SMTCalls == 0
	if warm {
		fam.warmHits.Add(1)
		d.warmHits.Add(1)
		mWarmHits.Inc()
	}
	var buf bytes.Buffer
	if err := meissa.WriteTemplates(&buf, gen.Templates); err != nil {
		return err
	}
	// The final pass's allocation figures are process-wide counters:
	// with other tenants' requests in flight they are not this run's.
	gen.FinalMallocs, gen.FinalAllocBytes = 0, 0
	rep := gen.Report("gen", fam.name, opts.Parallelism)
	d.count()
	rep.Daemon = d.daemonReport(queueWait, time.Since(reqStart))
	resp.Gen = &GenResponse{
		Templates:    buf.String(),
		NumTemplates: len(gen.Templates),
		SMTCalls:     gen.SMTCalls,
		JournalHits:  gen.JournalHits,
		WarmHit:      warm,
		WallNS:       int64(gen.Duration),
		Report:       rep,
	}
	return nil
}

// handleRegress applies an inline rule delta as one incremental
// regression against the store: stored rules are the baseline, the new
// rules and surviving verdicts commit back in one atomic transaction,
// and the family's in-memory rule set advances with it.
func (d *Daemon) handleRegress(req *Request, resp *Response) error {
	fam, err := d.lookup(req.Family)
	if err != nil {
		return err
	}
	params := req.Regress
	if params == nil || params.NewRules == "" {
		return fmt.Errorf("regress: missing new_rules")
	}
	newRules, err := rules.Parse(params.NewRules)
	if err != nil {
		return fmt.Errorf("regress: new rules: %w", err)
	}
	reqStart := time.Now()
	release, err := d.sched.Acquire(req.Tenant, fam.name)
	if err != nil {
		return err
	}
	defer release()
	queueWait := time.Since(reqStart)
	d.slowdown()

	opts := meissa.DefaultOptions()
	opts.CodeSummary = !params.NoSummary
	opts.Parallelism = params.Parallel
	opts.Store = d.st
	res, err := meissa.RegressStore(meissa.RegressInput{
		Prog:     fam.prog,
		NewRules: newRules,
		Specs:    fam.specs,
		Opts:     opts,
		Program:  fam.name,
		RuleSet:  "daemon",
	})
	if err != nil {
		return err
	}
	fam.rules = newRules
	fam.regresses.Add(1)

	var buf bytes.Buffer
	if err := meissa.WriteTemplates(&buf, res.Gen.Templates); err != nil {
		return err
	}
	res.Gen.FinalMallocs, res.Gen.FinalAllocBytes = 0, 0 // as in handleGen
	rep := res.Gen.Report("regress", fam.name, opts.Parallelism)
	d.count()
	rep.Daemon = d.daemonReport(queueWait, time.Since(reqStart))
	resp.Regress = &RegressResponse{
		Templates:    buf.String(),
		NumTemplates: len(res.Gen.Templates),
		Report:       rep,
	}
	return nil
}

func (d *Daemon) handleStatus(resp *Response) error {
	st := &StatusResponse{
		Addr:           d.Addr(),
		UptimeNS:       int64(time.Since(d.start)),
		RequestsServed: d.requests.Load(),
		WarmHits:       d.warmHits.Load(),
		StoreConflicts: d.storeConflicts.Load(),
		Inflight:       d.sched.Running(),
		QueueDepth:     d.sched.Depth(),
	}
	d.mu.Lock()
	for _, fam := range d.families {
		st.Families = append(st.Families, FamilyStatus{
			Name:      fam.name,
			Gens:      fam.gens.Load(),
			Regresses: fam.regresses.Load(),
			WarmHits:  fam.warmHits.Load(),
		})
	}
	d.mu.Unlock()
	sort.Slice(st.Families, func(i, j int) bool { return st.Families[i].Name < st.Families[j].Name })
	d.count()
	st.RequestsServed = d.requests.Load()
	resp.Status = st
	return nil
}

func (d *Daemon) handleUnload(req *Request, resp *Response) error {
	fam, err := d.lookup(req.Family)
	if err != nil {
		return err
	}
	// Wait for in-flight work on the family before dropping it.
	release, err := d.sched.Acquire(req.Tenant, fam.name)
	if err != nil {
		return err
	}
	defer release()
	d.mu.Lock()
	delete(d.families, fam.name)
	gFamilies.Set(int64(len(d.families)))
	d.mu.Unlock()
	d.count()
	resp.Load = &LoadResponse{Family: fam.name}
	return nil
}

// count tallies one served request in both the daemon counters and the
// obs registry, and refreshes the queue gauges.
func (d *Daemon) count() {
	d.requests.Add(1)
	mRequests.Inc()
	gInflight.Set(int64(d.sched.Running()))
	gQueue.Set(int64(d.sched.Depth()))
}

// slowdown is the SlowRequest fault-injection hook (no-op in
// production).
func (d *Daemon) slowdown() {
	if d.cfg.SlowRequest > 0 {
		time.Sleep(d.cfg.SlowRequest)
	}
}

// daemonReport stamps the run report's daemon section. Callers count
// the request first, so RequestsServed is never zero here.
func (d *Daemon) daemonReport(queueWait, wall time.Duration) *obs.DaemonReport {
	rep := &obs.DaemonReport{
		Addr:                 d.Addr(),
		RequestsServed:       d.requests.Load(),
		WarmHits:             d.warmHits.Load(),
		StoreConflicts:       d.storeConflicts.Load(),
		QueueWaitNS:          int64(queueWait),
		TimeToFirstVerdictNS: int64(wall),
	}
	d.mu.Lock()
	rep.Families = len(d.families)
	d.mu.Unlock()
	if up := time.Since(d.start); up > 0 {
		rep.RequestsPerSec = float64(rep.RequestsServed) / up.Seconds()
	}
	return rep
}

// view is the /fleet payload: live daemon state for `meissa top` and
// curl.
func (d *Daemon) view() any {
	type famView struct {
		Name      string `json:"name"`
		Gens      uint64 `json:"gens"`
		Regresses uint64 `json:"regresses"`
		WarmHits  uint64 `json:"warm_hits"`
	}
	v := struct {
		Addr           string    `json:"addr"`
		UptimeNS       int64     `json:"uptime_ns"`
		RequestsServed uint64    `json:"requests_served"`
		WarmHits       uint64    `json:"warm_hits"`
		StoreConflicts uint64    `json:"store_conflicts"`
		Inflight       int       `json:"inflight"`
		QueueDepth     int       `json:"queue_depth"`
		Families       []famView `json:"families"`
	}{
		Addr:           d.Addr(),
		UptimeNS:       int64(time.Since(d.start)),
		RequestsServed: d.requests.Load(),
		WarmHits:       d.warmHits.Load(),
		StoreConflicts: d.storeConflicts.Load(),
		Inflight:       d.sched.Running(),
		QueueDepth:     d.sched.Depth(),
	}
	d.mu.Lock()
	for _, fam := range d.families {
		v.Families = append(v.Families, famView{
			Name: fam.name, Gens: fam.gens.Load(),
			Regresses: fam.regresses.Load(), WarmHits: fam.warmHits.Load(),
		})
	}
	d.mu.Unlock()
	sort.Slice(v.Families, func(i, j int) bool { return v.Families[i].Name < v.Families[j].Name })
	return v
}
