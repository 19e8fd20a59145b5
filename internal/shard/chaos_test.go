package shard

import (
	"io"
	"math/rand"
	"testing"
)

// killConn is a worker connection that only records being killed.
type killConn struct{ killed int }

func (k *killConn) Write(p []byte) (int, error) { return len(p), nil }
func (k *killConn) CloseWrite() error           { return nil }
func (k *killConn) Reader() io.Reader           { return nil }
func (k *killConn) Kill()                       { k.killed++ }
func (k *killConn) Wait() error                 { return nil }

// chaosCoordinator is a coordinator mid-run with one chaos kill due at the
// first completed unit: slot 0 is attached but still booting, slot 1 is as
// bootingToo says.
func chaosCoordinator(seed int64, bootingToo bool) (*coordinator, []*killConn) {
	conns := []*killConn{{}, {}}
	c := &coordinator{
		cfg:    &Config{},
		table:  newTestTable(4, newFakeClock()),
		res:    &Result{},
		rng:    rand.New(rand.NewSource(seed)),
		killAt: []int{1},
		fleet:  map[int]*genFleet{},
		slots: []*workerSlot{
			{id: 0, gen: 1, conn: conns[0], alive: true},
			{id: 1, gen: 2, conn: conns[1], alive: true, ready: !bootingToo},
		},
	}
	return c, conns
}

// TestChaosKillTargetsReadyWorkers: a chaos kill never lands on a worker
// that has not answered Ready (it has no flight file to harvest yet, which
// is what made the fleet tests flake), whatever the seed draws.
func TestChaosKillTargetsReadyWorkers(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		c, conns := chaosCoordinator(seed, false)
		c.chaosMaybeKill(1)
		if conns[0].killed != 0 || conns[1].killed != 1 {
			t.Fatalf("seed %d: kills landed booting=%d ready=%d, want 0 and 1", seed, conns[0].killed, conns[1].killed)
		}
		if c.res.KillsInjected != 1 || len(c.killAt) != 0 {
			t.Fatalf("seed %d: %d kills injected, %d pending; want 1 and 0", seed, c.res.KillsInjected, len(c.killAt))
		}
	}
}

// TestChaosKillWaitsForAReadyWorker: with every worker still booting the
// kill is neither fired nor dropped; it fires at the next completion that
// finds a worker ready.
func TestChaosKillWaitsForAReadyWorker(t *testing.T) {
	c, conns := chaosCoordinator(1, true)
	c.chaosMaybeKill(1)
	if conns[0].killed+conns[1].killed != 0 || c.res.KillsInjected != 0 {
		t.Fatalf("a booting worker was killed (%d, %d)", conns[0].killed, conns[1].killed)
	}
	if len(c.killAt) != 1 {
		t.Fatalf("%d kills pending, want the one that found nobody ready", len(c.killAt))
	}
	c.slots[0].ready = true
	c.chaosMaybeKill(2)
	if conns[0].killed != 1 || conns[1].killed != 0 || c.res.KillsInjected != 1 || len(c.killAt) != 0 {
		t.Fatalf("after slot 0 became ready: kills %d/%d, injected %d, pending %d; want 1/0, 1, 0",
			conns[0].killed, conns[1].killed, c.res.KillsInjected, len(c.killAt))
	}
}
