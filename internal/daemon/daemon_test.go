package daemon

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	meissa "repro"
	"repro/internal/cfg"
	"repro/internal/obs"
	"repro/internal/p4"
	"repro/internal/programs"
	"repro/internal/rulediff"
	"repro/internal/store"
)

// TestMain doubles as the out-of-process daemon helper for the
// kill-during-request test: with MEISSA_DAEMON_HELPER=1 the test binary
// runs a resident daemon (with a deliberately slow request path)
// instead of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("MEISSA_DAEMON_HELPER") == "1" {
		runHelper()
		return
	}
	os.Exit(m.Run())
}

func runHelper() {
	slow, _ := time.ParseDuration(os.Getenv("MEISSA_DAEMON_SLOW"))
	d, err := New(Config{
		Addr:        os.Getenv("MEISSA_DAEMON_ADDR"),
		StorePath:   os.Getenv("MEISSA_DAEMON_STORE"),
		SlowRequest: slow,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	if err := d.Listen(); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	fmt.Println("READY", d.Addr())
	if err := d.Serve(); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
}

// corpusProgram returns a corpus entry by name.
func corpusProgram(t *testing.T, name string) *programs.Program {
	t.Helper()
	for _, p := range programs.All() {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("no corpus program %q", name)
	return nil
}

// coldTemplates renders a store-free, single-process cold run — the
// byte-identity reference every daemon response is diffed against.
func coldTemplates(t *testing.T, p *programs.Program) string {
	t.Helper()
	sys, err := meissa.New(p.Prog, p.Rules, nil, meissa.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := sys.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := meissa.WriteTemplates(&buf, gen.Templates); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// startDaemon runs an in-process daemon on a unix socket and returns a
// connected client. Everything is torn down with the test.
func startDaemon(t *testing.T, cfg Config) (*Daemon, *Client) {
	t.Helper()
	dir := t.TempDir()
	if cfg.Addr == "" {
		cfg.Addr = "unix://" + filepath.Join(dir, "d.sock")
	}
	if cfg.StorePath == "" {
		cfg.StorePath = filepath.Join(dir, "d.store")
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Listen(); err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := d.Serve(); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() { _ = d.Shutdown() })
	c, err := Dial(d.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return d, c
}

// loadFamily sends a load request built from a corpus program's printed
// sources — the same texts a remote client would ship.
func loadFamily(t *testing.T, c *Client, p *programs.Program, tenant string) {
	t.Helper()
	resp, err := c.Do(&Request{
		Op:      OpLoad,
		Tenant:  tenant,
		Family:  p.Name,
		Program: p4.Print(p.Prog),
		Rules:   p.Rules.String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("load %s: %s", p.Name, resp.Error)
	}
	if resp.Load == nil || resp.Load.Family != p.Name {
		t.Fatalf("load %s: bad ack %+v", p.Name, resp.Load)
	}
}

func doGen(t *testing.T, c *Client, family, tenant string) *GenResponse {
	t.Helper()
	resp, err := c.Do(&Request{Op: OpGen, Tenant: tenant, Family: family})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("gen %s: %s", family, resp.Error)
	}
	if resp.Gen == nil {
		t.Fatalf("gen %s: no gen section", family)
	}
	return resp.Gen
}

// TestDaemonWarmGenByteIdentical is the tentpole guarantee: the second
// gen request for an unchanged family is answered entirely from warm
// state — zero live solver queries — and its rendered templates are
// byte-identical to a cold CLI-style run.
func TestDaemonWarmGenByteIdentical(t *testing.T) {
	p := corpusProgram(t, "gw-1")
	want := coldTemplates(t, p)
	_, c := startDaemon(t, Config{})
	loadFamily(t, c, p, "t1")

	cold := doGen(t, c, p.Name, "t1")
	if cold.Templates != want {
		t.Fatalf("cold daemon gen differs from direct cold run (%d vs %d bytes)", len(cold.Templates), len(want))
	}
	if cold.SMTCalls == 0 {
		t.Fatal("cold gen reported zero solver calls; warm detection would be vacuous")
	}

	warm := doGen(t, c, p.Name, "t1")
	if warm.Templates != want {
		t.Fatal("warm daemon gen not byte-identical to cold run")
	}
	if !warm.WarmHit {
		t.Fatalf("second gen not a warm hit (smt=%d journal=%d)", warm.SMTCalls, warm.JournalHits)
	}
	if warm.SMTCalls != 0 {
		t.Fatalf("warm gen made %d live solver calls, want 0", warm.SMTCalls)
	}
	if warm.JournalHits == 0 {
		t.Fatal("warm gen answered no interactions from the store journal")
	}
	if warm.Report == nil || warm.Report.Daemon == nil {
		t.Fatal("warm gen report missing daemon section")
	}
	if dr := warm.Report.Daemon; dr.WarmHits < 1 || dr.RequestsServed < 2 {
		t.Fatalf("daemon section counters off: %+v", dr)
	}
	if err := warm.Report.Validate(); err != nil {
		t.Fatalf("warm gen report fails validation: %v", err)
	}

	// A sequential generation measures its final pass's allocations from
	// process-wide counters; the daemon, which runs tenants side by side,
	// must not report them as the request's.
	seq, err := c.Do(&Request{Op: OpGen, Tenant: "t1", Family: p.Name, Gen: &GenParams{Parallel: 1}})
	if err != nil || !seq.OK {
		t.Fatalf("sequential gen: %v %+v", err, seq)
	}
	if pr := seq.Gen.Report.Paths; pr.FinalMallocs != 0 || pr.FinalAllocBytes != 0 {
		t.Fatalf("daemon report carries process-wide allocation counts: %d objects, %d bytes", pr.FinalMallocs, pr.FinalAllocBytes)
	}
}

// TestDaemonWarmRequestCommitsNothing: a warm request — the second one, and
// the first one after a restart — commits no record and no transaction, so
// its store-commit phase is a no-op and the store file stays byte for byte
// what the cold request left. The cold request runs at Parallel 1: a
// sequential request keeps no solver-verdict memo, in the daemon as in the
// CLI, so none of its checks is a memo hit.
func TestDaemonWarmRequestCommitsNothing(t *testing.T) {
	p := corpusProgram(t, "gw-1")
	spath := filepath.Join(t.TempDir(), "d.store")
	d, c := startDaemon(t, Config{StorePath: spath})
	loadFamily(t, c, p, "t1")
	resp, err := c.Do(&Request{Op: OpGen, Tenant: "t1", Family: p.Name, Gen: &GenParams{Parallel: 1}})
	if err != nil || !resp.OK {
		t.Fatalf("cold gen: %v %+v", err, resp)
	}
	cold := resp.Gen
	if st := cold.Report.Store; st == nil || st.Committed == 0 || st.Commits == 0 {
		t.Fatalf("cold request committed nothing (%+v); the test would say nothing", st)
	}
	if sr := cold.Report.Solver; sr.Solved == 0 || sr.Outcomes[obs.OutcomeCacheHit] != 0 {
		t.Errorf("cold request at Parallel 1: %d checks solved, %d answered by a verdict memo; want none by a memo",
			sr.Solved, sr.Outcomes[obs.OutcomeCacheHit])
	}
	populated, err := os.ReadFile(spath)
	if err != nil {
		t.Fatal(err)
	}
	checkNoCommit := func(what string, gen *GenResponse) {
		t.Helper()
		st := gen.Report.Store
		if !gen.WarmHit || st == nil {
			t.Fatalf("%s: not a warm hit (smt=%d, store %+v)", what, gen.SMTCalls, st)
		}
		if st.Warmed != cold.Report.Store.Committed || st.Committed != 0 || st.Commits != 0 {
			t.Errorf("%s: warmed %d of %d, committed %d, commits %d; want all, 0, 0",
				what, st.Warmed, cold.Report.Store.Committed, st.Committed, st.Commits)
		}
		if now, err := os.ReadFile(spath); err != nil || !bytes.Equal(now, populated) {
			t.Errorf("%s: the store file changed (read error %v)", what, err)
		}
	}
	checkNoCommit("second request", doGen(t, c, p.Name, "t1"))

	_ = c.Close()
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
	_, c = startDaemon(t, Config{StorePath: spath})
	loadFamily(t, c, p, "t1")
	checkNoCommit("first request after a restart", doGen(t, c, p.Name, "t1"))
}

// TestDaemonSurvivesStrictPanic: a strict gen whose exploration panics
// (on the caller's goroutine at Parallel 1, re-raised from a worker at
// Parallel 2) is answered with an error, and the daemon — with the
// family's warm state — serves the next request.
func TestDaemonSurvivesStrictPanic(t *testing.T) {
	p := corpusProgram(t, "gw-1")
	want := coldTemplates(t, p)
	var armed atomic.Bool
	testPathHook = func([]cfg.NodeID) {
		if armed.Load() {
			panic("injected path fault")
		}
	}
	t.Cleanup(func() { testPathHook = nil })
	_, c := startDaemon(t, Config{})
	loadFamily(t, c, p, "t1")
	for _, parallel := range []int{1, 2} {
		armed.Store(true)
		resp, err := c.Do(&Request{Op: OpGen, Tenant: "t1", Family: p.Name, Gen: &GenParams{Strict: true, Parallel: parallel}})
		if err != nil {
			t.Fatalf("parallel=%d: connection lost: %v", parallel, err)
		}
		if resp.OK || !strings.Contains(resp.Error, "injected path fault") {
			t.Fatalf("parallel=%d: strict gen over a panicking hook: ok=%v error=%q", parallel, resp.OK, resp.Error)
		}
		armed.Store(false)
		if got := doGen(t, c, p.Name, "t1"); got.Templates != want {
			t.Fatalf("parallel=%d: gen after the panic differs from a cold run", parallel)
		}
	}
}

// TestDaemonRegressInlineDelta sends a rule update as an inline
// regress: the store's baseline answers the unchanged paths, the result
// commits atomically, and the family's next gen is warm under the NEW
// rules — and still byte-identical to a cold run on them.
func TestDaemonRegressInlineDelta(t *testing.T) {
	p := corpusProgram(t, "gw-1")
	_, c := startDaemon(t, Config{})
	loadFamily(t, c, p, "t1")
	doGen(t, c, p.Name, "t1") // seed the store baseline

	newRules, n := rulediff.MutateArgs(p.Rules, 2)
	if n == 0 {
		t.Fatal("mutation produced no change")
	}
	resp, err := c.Do(&Request{
		Op: OpRegress, Tenant: "t1", Family: p.Name,
		Regress: &RegressParams{NewRules: newRules.String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("regress: %s", resp.Error)
	}
	if resp.Regress == nil || resp.Regress.NumTemplates == 0 {
		t.Fatalf("regress: bad response %+v", resp.Regress)
	}

	// Reference: a cold run on the new rules.
	sys, err := meissa.New(p.Prog, newRules, nil, meissa.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := sys.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := meissa.WriteTemplates(&want, gen.Templates); err != nil {
		t.Fatal(err)
	}
	if resp.Regress.Templates != want.String() {
		t.Fatal("incremental regress templates not byte-identical to cold run on new rules")
	}

	warm := doGen(t, c, p.Name, "t1")
	if warm.Templates != want.String() {
		t.Fatal("post-regress gen not byte-identical to cold run on new rules")
	}
	if !warm.WarmHit {
		t.Fatalf("post-regress gen not warm (smt=%d)", warm.SMTCalls)
	}
}

func TestDaemonStatusAndUnload(t *testing.T) {
	p := corpusProgram(t, "Router")
	d, c := startDaemon(t, Config{})
	loadFamily(t, c, p, "")
	doGen(t, c, p.Name, "")

	resp, err := c.Do(&Request{Op: OpStatus})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Status == nil {
		t.Fatalf("status: %+v", resp)
	}
	st := resp.Status
	if st.RequestsServed < 2 || len(st.Families) != 1 || st.Families[0].Name != p.Name || st.Families[0].Gens != 1 {
		t.Fatalf("status: %+v (families %+v)", st, st.Families)
	}
	if st.Addr != d.Addr() {
		t.Fatalf("status addr %q, want %q", st.Addr, d.Addr())
	}

	resp, err = c.Do(&Request{Op: OpUnload, Family: p.Name})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("unload: %s", resp.Error)
	}
	resp, err = c.Do(&Request{Op: OpGen, Family: p.Name})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("gen on unloaded family succeeded")
	}
}

// TestDaemonMultiTenantHammer drives two families from several
// concurrent clients under distinct tenants: every response must be
// byte-identical to the sequential cold reference, and the run must
// finish (no tenant starves) — the -race build checks the warm-state
// sharing for data races.
func TestDaemonMultiTenantHammer(t *testing.T) {
	pa := corpusProgram(t, "gw-1")
	pb := corpusProgram(t, "Router")
	wantA := coldTemplates(t, pa)
	wantB := coldTemplates(t, pb)
	d, c0 := startDaemon(t, Config{MaxConcurrent: 2})
	loadFamily(t, c0, pa, "seed")
	loadFamily(t, c0, pb, "seed")

	const clients = 4
	const reqs = 3
	var wg sync.WaitGroup
	errs := make(chan error, clients*reqs)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(d.Addr(), 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			tenant := fmt.Sprintf("tenant-%d", i)
			for r := 0; r < reqs; r++ {
				fam, want := pa.Name, wantA
				if (i+r)%2 == 1 {
					fam, want = pb.Name, wantB
				}
				resp, err := c.Do(&Request{Op: OpGen, Tenant: tenant, Family: fam})
				if err != nil {
					errs <- err
					return
				}
				if !resp.OK {
					errs <- fmt.Errorf("gen %s: %s", fam, resp.Error)
					return
				}
				if resp.Gen.Templates != want {
					errs <- fmt.Errorf("client %d req %d: %s templates diverge from sequential reference", i, r, fam)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	resp, err := c0.Do(&Request{Op: OpStatus})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Status.RequestsServed; got < clients*reqs {
		t.Fatalf("requests served %d, want >= %d", got, clients*reqs)
	}
	// Everything after the two cold seeds must have been warm.
	if got := resp.Status.WarmHits; got < clients*reqs-2 {
		t.Fatalf("warm hits %d, want >= %d", got, clients*reqs-2)
	}
}

// TestDaemonShutdownDrain proves a SIGTERM-style Shutdown lets the
// in-flight request complete and deliver its response while later
// requests are refused.
func TestDaemonShutdownDrain(t *testing.T) {
	p := corpusProgram(t, "Router")
	d, c := startDaemon(t, Config{SlowRequest: 300 * time.Millisecond})
	loadFamily(t, c, p, "")

	type result struct {
		resp *Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := c.Do(&Request{Op: OpGen, Family: p.Name})
		done <- result{resp, err}
	}()
	time.Sleep(100 * time.Millisecond) // let the gen enter its slot
	if err := d.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight gen during drain: %v", res.err)
	}
	if !res.resp.OK {
		t.Fatalf("in-flight gen during drain failed: %s", res.resp.Error)
	}
	if res.resp.Gen.NumTemplates == 0 {
		t.Fatal("drained gen returned no templates")
	}
	// The daemon is gone: a fresh dial must fail fast.
	if _, err := Dial(d.Addr(), 200*time.Millisecond); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestDaemonKillDuringRequestStoreRecovers SIGKILLs a daemon process
// mid-request and proves the store is immediately reopenable — the
// advisory lock dies with the process — and a fresh daemon serves the
// same store cleanly.
func TestDaemonKillDuringRequestStoreRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a helper process")
	}
	p := corpusProgram(t, "Router")
	dir := t.TempDir()
	storePath := filepath.Join(dir, "kill.store")
	addr := "unix://" + filepath.Join(dir, "kill.sock")

	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"MEISSA_DAEMON_HELPER=1",
		"MEISSA_DAEMON_ADDR="+addr,
		"MEISSA_DAEMON_STORE="+storePath,
		"MEISSA_DAEMON_SLOW=10s",
	)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()
	ready := make([]byte, 64)
	if _, err := stdout.Read(ready); err != nil {
		t.Fatalf("helper ready: %v", err)
	}

	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	loadFamily(t, c, p, "")
	// While the helper daemon holds the store lock, a second opener is
	// refused — the flock is live.
	if _, err := store.Open(storePath, store.Options{}); err == nil {
		t.Fatal("store opened while the daemon holds the lock")
	}

	// Fire a gen that will sit in the 10s slow path, then kill the
	// daemon mid-request.
	go func() {
		_, _ = c.Do(&Request{Op: OpGen, Family: p.Name})
	}()
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	// The kernel released the advisory lock with the process: the store
	// opens (recovering whatever the WAL holds) without ErrStoreBusy.
	st, err := store.Open(storePath, store.Options{})
	if err != nil {
		t.Fatalf("store did not recover after SIGKILL: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// And a fresh daemon serves the same store end to end.
	_, c2 := startDaemon(t, Config{StorePath: storePath})
	loadFamily(t, c2, p, "")
	gen := doGen(t, c2, p.Name, "")
	if gen.NumTemplates == 0 {
		t.Fatal("post-recovery gen returned no templates")
	}
}
