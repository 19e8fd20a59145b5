package meissa_test

// End-to-end tests for fault-tolerant sharded exploration (the
// robustness tentpole): the same test binary doubles as the worker
// subprocess — TestMain diverts to ServeShardWorker before the test
// framework can write anything to stdout, keeping the protocol stream
// clean.

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	meissa "repro"
	"repro/internal/programs"
	"repro/internal/shard"
)

func TestMain(m *testing.M) {
	if os.Getenv("MEISSA_SHARD_WORKER") == "1" {
		if err := meissa.ServeShardWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "shard worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if addr := os.Getenv("MEISSA_SHARD_CONNECT"); addr != "" {
		// Remote-worker mode: dial the coordinator's listener and serve
		// one run over the connection (the `meissa work -connect` path).
		conn, err := shard.DialWorker(addr, 30*time.Second)
		if err != nil {
			fmt.Fprintln(os.Stderr, "shard dial:", err)
			os.Exit(1)
		}
		err = meissa.ServeShardWorker(conn, conn)
		conn.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "shard remote worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// workerCommand re-executes this test binary in worker mode.
func workerCommand() *exec.Cmd {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "MEISSA_SHARD_WORKER=1")
	return cmd
}

// firstDiff locates the first diverging line of two renderings for a
// readable failure message.
func firstDiff(want, got string) string {
	a, b := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("line %d:\n  seq:   %s\n  shard: %s", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(a), len(b))
}

// generateSharded runs one generation with sharding on and any extra
// option tweaks applied.
func generateSharded(t *testing.T, p *programs.Program, mod func(*meissa.Options)) *meissa.GenResult {
	t.Helper()
	opts := meissa.DefaultOptions()
	opts.CodeSummary = false // match generateAt(t, p, false, 1)
	opts.Parallelism = 1
	opts.ShardWorkers = 4
	opts.WorkerCommand = workerCommand
	if mod != nil {
		mod(&opts)
	}
	sys, err := meissa.New(p.Prog, p.Rules, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := sys.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// TestShardedMatchesSequential: the headline guarantee — a multi-process
// sharded run produces a template set byte-identical to the sequential
// engine, on multiple corpus programs.
func TestShardedMatchesSequential(t *testing.T) {
	for _, name := range []string{"Router", "gw-1"} {
		t.Run(name, func(t *testing.T) {
			p := corpusProgram(t, name)
			seq := generateAt(t, p, false, 1)
			shard := generateSharded(t, p, nil)
			if got, want := renderTemplates(shard.Templates), renderTemplates(seq.Templates); got != want {
				t.Fatalf("sharded output diverges from sequential (%d vs %d templates)\n%s",
					len(shard.Templates), len(seq.Templates), firstDiff(want, got))
			}
			rep := shard.Shard
			if rep == nil {
				t.Fatal("no shard report on a sharded run")
			}
			if rep.Fallback {
				t.Fatalf("unexpected fallback: %s", rep.FallbackReason)
			}
			if rep.Units == 0 || rep.UnitsCompleted != rep.Units || rep.UnitsQuarantined != 0 {
				t.Fatalf("unit accounting off: %+v", rep)
			}
			if rep.LeasesIssued != rep.LeasesCompleted+rep.LeasesExpired {
				t.Fatalf("lease identity broken: %+v", rep)
			}
		})
	}
}

// TestShardedSurvivesWorkerKills: chaos mode SIGKILLs live workers
// mid-generation; leases expire or fail over, units are reassigned, and
// the merged output is still byte-identical to sequential.
func TestShardedSurvivesWorkerKills(t *testing.T) {
	p := corpusProgram(t, "gw-1")
	seq := generateAt(t, p, false, 1)
	shard := generateSharded(t, p, func(o *meissa.Options) {
		o.ShardChaosKills = 2
		o.ShardChaosSeed = 1
		// Stretch units so kills land mid-generation, and keep lease
		// recovery snappy.
		o.ShardPathSleep = 500 * time.Microsecond
		o.LeaseTimeout = 2 * time.Second
	})
	if got, want := renderTemplates(shard.Templates), renderTemplates(seq.Templates); got != want {
		t.Fatalf("output diverged after worker kills (%d vs %d templates)",
			len(shard.Templates), len(seq.Templates))
	}
	rep := shard.Shard
	if rep == nil || rep.Fallback {
		t.Fatalf("chaos run fell back: %+v", rep)
	}
	if rep.KillsInjected != 2 {
		t.Fatalf("kills injected = %d, want 2", rep.KillsInjected)
	}
	if rep.WorkerRestarts == 0 {
		t.Fatal("killed workers were not restarted")
	}
	if rep.LeasesIssued != rep.LeasesCompleted+rep.LeasesExpired {
		t.Fatalf("lease identity broken after kills: %+v", rep)
	}
}

// TestShardedPoisonUnitQuarantined: a unit that crashes every worker it
// is assigned to must be quarantined after MaxAssign attempts, its
// subtree degraded to Unknown, and every other unit's verdicts kept.
// Degradation is a strict superset: all sequential template paths still
// appear.
func TestShardedPoisonUnitQuarantined(t *testing.T) {
	p := corpusProgram(t, "gw-1")
	seq := generateAt(t, p, false, 1)
	shard := generateSharded(t, p, func(o *meissa.Options) {
		o.ShardPoisonUnit = 2
		o.LeaseTimeout = time.Second // backoff = 125ms: quick retries
	})
	rep := shard.Shard
	if rep == nil || rep.Fallback {
		t.Fatalf("poison run fell back: %+v", rep)
	}
	if rep.UnitsQuarantined != 1 {
		t.Fatalf("units quarantined = %d, want 1 (%+v)", rep.UnitsQuarantined, rep)
	}
	if rep.LeasesExpired < uint64(rep.MaxAssign) {
		t.Fatalf("leases expired = %d, want >= MaxAssign %d", rep.LeasesExpired, rep.MaxAssign)
	}
	if rep.DegradedTemplates == 0 {
		t.Fatal("quarantined subtree produced no degraded templates")
	}
	if rep.LeasesIssued != rep.LeasesCompleted+rep.LeasesExpired {
		t.Fatalf("lease identity broken: %+v", rep)
	}

	// Superset check: every sequential path survives; the degraded
	// subtree only weakens verdicts to Unknown, it never loses paths.
	if len(shard.Templates) < len(seq.Templates) {
		t.Fatalf("degraded run lost templates: %d < %d", len(shard.Templates), len(seq.Templates))
	}
	have := make(map[string]bool, len(shard.Templates))
	for _, tm := range shard.Templates {
		have[fmt.Sprint(tm.Path)] = true
	}
	for _, tm := range seq.Templates {
		if !have[fmt.Sprint(tm.Path)] {
			t.Fatalf("sequential path %v missing from degraded run", tm.Path)
		}
	}
}

// TestShardedSpawnFailureFallsBack: if no worker subprocess ever becomes
// usable, the run degrades to in-process exploration with a logged
// reason — and still produces the exact sequential output.
func TestShardedSpawnFailureFallsBack(t *testing.T) {
	p := corpusProgram(t, "Router")
	seq := generateAt(t, p, false, 1)
	shard := generateSharded(t, p, func(o *meissa.Options) {
		o.WorkerCommand = func() *exec.Cmd {
			return exec.Command("/nonexistent/meissa-worker-binary")
		}
		o.LeaseTimeout = time.Second
	})
	rep := shard.Shard
	if rep == nil || !rep.Fallback {
		t.Fatalf("spawn failure did not fall back: %+v", rep)
	}
	if rep.FallbackReason == "" {
		t.Fatal("fallback carries no reason")
	}
	if got, want := renderTemplates(shard.Templates), renderTemplates(seq.Templates); got != want {
		t.Fatal("fallback output diverges from sequential")
	}
}

// TestShardedIneligibleOptionsFallBack: options the shard planner cannot
// honor (bounded exploration here) force an up-front in-process fallback
// with a reason naming the option; ShardWorkers <= 1 simply never
// engages sharding.
func TestShardedIneligibleOptionsFallBack(t *testing.T) {
	p := corpusProgram(t, "Router")

	seq := generateAt(t, p, false, 1)
	bounded := generateSharded(t, p, func(o *meissa.Options) {
		o.MaxPaths = 100000 // far above Router's path count: output unchanged
	})
	rep := bounded.Shard
	if rep == nil || !rep.Fallback {
		t.Fatalf("ineligible options did not fall back: %+v", rep)
	}
	if !strings.Contains(rep.FallbackReason, "MaxPaths") {
		t.Fatalf("fallback reason %q does not name the option", rep.FallbackReason)
	}
	if got, want := renderTemplates(bounded.Templates), renderTemplates(seq.Templates); got != want {
		t.Fatal("ineligible-option fallback diverges from sequential")
	}

	single := generateSharded(t, p, func(o *meissa.Options) { o.ShardWorkers = 1 })
	if single.Shard != nil {
		t.Fatalf("ShardWorkers=1 produced a shard report: %+v", single.Shard)
	}
	if got, want := renderTemplates(single.Templates), renderTemplates(seq.Templates); got != want {
		t.Fatal("single-worker run diverges from sequential")
	}
}

// freeTCPAddr reserves an ephemeral port and releases it for the
// coordinator's listener; the window between release and re-listen is
// covered by the dial retry.
func freeTCPAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// gateRemoteWorkers relays n workers that dialed front to the
// coordinator listening on backend, and holds back everything the
// workers send (first of all their Ready) until the coordinator has
// attached all n — it writes a Hello on attach. No unit is leased before
// a Ready, so no worker can find the run already over: a short run
// finishing on the first dialer alone would leave the others refused.
func gateRemoteWorkers(t *testing.T, front net.Listener, backend string, n int) {
	var attached sync.WaitGroup
	attached.Add(n)
	for i := 0; i < n; i++ {
		w, err := front.Accept()
		if err != nil {
			t.Errorf("accepting worker %d: %v", i, err)
			return
		}
		b, err := shard.DialWorker(backend, 30*time.Second)
		if err != nil {
			t.Errorf("relaying worker %d: %v", i, err)
			return
		}
		go func() { // coordinator → worker
			var once sync.Once
			buf := make([]byte, 32<<10)
			for {
				m, err := b.Read(buf)
				// A close before the hello opens the gate too: that
				// worker then exits non-zero and fails the test.
				once.Do(attached.Done)
				w.Write(buf[:m])
				if err != nil {
					break
				}
			}
			w.(*net.TCPConn).CloseWrite()
		}()
		go func() { // worker → coordinator
			attached.Wait()
			io.Copy(b, w)
			b.Close()
			w.Close()
		}()
	}
}

// TestShardedRemoteTCPMatchesSequential: the listener transport — remote
// workers dialing in over TCP instead of being spawned over pipes —
// produces output byte-identical to the one-runner run, through the
// same fingerprint handshake and lease supervision.
func TestShardedRemoteTCPMatchesSequential(t *testing.T) {
	p := corpusProgram(t, "gw-1")
	seq := generateAt(t, p, false, 1)

	// The workers dial a listener that is already up, and the gate relays
	// them to the coordinator's once Generate has opened it.
	front, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	addr := "tcp://" + freeTCPAddr(t)
	var procs []*exec.Cmd
	for i := 0; i < 2; i++ {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "MEISSA_SHARD_CONNECT=tcp://"+front.Addr().String())
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs = append(procs, cmd)
	}
	go gateRemoteWorkers(t, front, addr, len(procs))
	reaped := false
	defer func() {
		if !reaped {
			for _, c := range procs {
				c.Process.Kill()
				c.Wait()
			}
		}
	}()

	gen := generateSharded(t, p, func(o *meissa.Options) {
		o.ShardWorkers = 2
		o.ShardListen = addr
	})
	if got, want := renderTemplates(gen.Templates), renderTemplates(seq.Templates); got != want {
		t.Fatalf("remote TCP output diverges from sequential (%d vs %d templates)\n%s",
			len(gen.Templates), len(seq.Templates), firstDiff(want, got))
	}
	rep := gen.Shard
	if rep == nil {
		t.Fatal("no shard report on a sharded run")
	}
	if rep.Fallback {
		t.Fatalf("unexpected fallback: %s", rep.FallbackReason)
	}
	if rep.Units == 0 || rep.UnitsCompleted != rep.Units {
		t.Fatalf("unit accounting off: %+v", rep)
	}

	// Both workers attached (the gate held the run until they had). The
	// coordinator half-closed each connection at shutdown; the workers
	// must drain and exit zero on their own.
	reaped = true
	for _, c := range procs {
		if err := c.Wait(); err != nil {
			t.Fatalf("remote worker exit: %v", err)
		}
	}
}
