package shard

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os/exec"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
)

// ErrNoWorkers reports that no worker subprocess ever became (or
// remained) usable. The caller falls back to the in-process engine; the
// records merged before the collapse are already in the caller's journal
// (plus whatever Harvest scraped from dead workers' local journals), so
// the fallback re-solves only what no worker finished.
var ErrNoWorkers = errors.New("shard: no usable worker subprocesses")

// Config parameterizes a coordinator run.
type Config struct {
	// Hello is the template opening frame; the coordinator stamps a
	// per-spawn JournalPath into a copy for each worker generation.
	Hello *Hello
	// Units is the frontier in enumeration order.
	Units []LeaseUnit
	// Workers is the subprocess count (>= 1 slots; callers gate on > 1).
	Workers int
	// Command builds the subprocess command for one spawn. Stdin/Stdout
	// are overwritten by the coordinator; Stderr passes through unless
	// already set. Ignored when Transport is set.
	Command func() *exec.Cmd
	// Transport supplies worker connections: nil spawns subprocesses via
	// Command (the default); a ListenerTransport accepts remote dialers
	// instead. The coordinator owns the transport and closes it when the
	// run ends.
	Transport Transport
	// JournalPath names worker gen g's local journal file. Paths must be
	// unique per gen so a restarted worker never truncates records the
	// coordinator may still harvest from its dead predecessor.
	JournalPath func(gen int) string
	// Merge receives each newly merged record exactly once, in arrival
	// order (duplicates by (kind, key) are dropped here). Typically
	// appends into the coordinator's checkpoint journal.
	Merge func(journal.Record) error
	// Fingerprint opens worker journals during Harvest.
	Fingerprint uint64
	// TraceID is the run-wide trace identifier stamped into every
	// worker's Hello (empty disables trace propagation).
	TraceID string
	// FlightPath names worker gen g's crash flight-recorder file (nil
	// disables worker flight recording). Unique per gen, like
	// JournalPath, so a dead incarnation's recording survives its
	// replacement and can be harvested into the run report.
	FlightPath func(gen int) string

	LeaseTimeout time.Duration
	Backoff      time.Duration
	MaxAssign    int
	// ReadyTimeout bounds Hello→Ready; a silent worker is killed and the
	// slot respawned. Defaults to 4× LeaseTimeout.
	ReadyTimeout time.Duration
	// Now is the lease table clock; nil means time.Now.
	Now func() time.Time

	// ChaosKills SIGKILLs a seeded-random live worker that many times,
	// spread across the run (fault-injection testing).
	ChaosKills int
	ChaosSeed  int64
}

// Result is the coordinator's supervision summary.
type Result struct {
	Counters        Counters
	QuarantinedKeys []uint64
	MergedRecords   uint64
	DuplicateRecs   uint64
	HarvestedRecs   uint64
	WorkerRestarts  uint64
	CorruptFrames   uint64
	KillsInjected   uint64
	UnitFails       uint64
	// Fleet is the cross-process metric merge: per-incarnation registry
	// deltas folded from accepted Done frames, plus harvested flight
	// recordings of dead incarnations. The caller adds the split-phase
	// delta before reporting.
	Fleet *obs.FleetReport
}

// genFleet tracks one worker incarnation's observability contribution.
type genFleet struct {
	gen, slot  int
	died       bool
	killed     bool
	units      []int
	merged     *obs.Snapshot
	live       *obs.Snapshot // latest cumulative delta from Progress/Fail
	flightPath string
}

// FleetView is the /fleet endpoint's live rendering of a running
// coordinator: refreshed every supervision tick, read lock-free by the
// debug server.
type FleetView struct {
	TraceID     string            `json:"trace_id,omitempty"`
	Units       int               `json:"units"`
	Completed   uint64            `json:"completed"`
	Quarantined uint64            `json:"quarantined"`
	Workers     []FleetWorkerView `json:"workers"`
}

// FleetWorkerView is one slot's live state.
type FleetWorkerView struct {
	Worker   int    `json:"worker"` // incarnation id (spawn gen)
	Slot     int    `json:"slot"`
	Alive    bool   `json:"alive"`
	Ready    bool   `json:"ready"`
	Busy     bool   `json:"busy"`
	Unit     int    `json:"unit"`  // -1 when idle
	Paths    uint64 `json:"paths"` // cumulative within the current unit
	Restarts int    `json:"restarts"`
}

// workerSlot is one supervised worker position — a subprocess or a
// remote connection, per the transport. gen increments on every
// (re)spawn; events from older gens are stale and dropped.
type workerSlot struct {
	id            int
	gen           int
	conn          WorkerConn
	ready         bool
	alive         bool
	dead          bool // permanently failed (restart budget, skew)
	busy          bool
	unit          LeaseUnit
	unitPaths     uint64 // latest Progress count for the current unit
	readyDeadline time.Time
	restarts      int
}

type event struct {
	worker, gen int
	env         *Envelope
	err         error // read error; io.EOF for clean close
	exited      bool  // process reaped
}

type mergeKey struct {
	kind journal.Kind
	key  uint64
}

// coordinator carries one Run's state.
type coordinator struct {
	cfg    *Config
	table  *Table
	slots  []*workerSlot
	events chan event
	genSeq int
	merged map[mergeKey]bool
	paths  []string // every worker journal path ever issued
	res    *Result
	rng    *rand.Rand
	// idleSince tracks how long a deferred transport has had zero live
	// workers; past ReadyTimeout the run collapses to ErrNoWorkers.
	idleSince time.Time
	// killAt holds completed-unit thresholds at which a chaos kill fires.
	killAt []int
	// fleet tracks per-incarnation observability, keyed by spawn gen.
	fleet map[int]*genFleet
	// view is the published FleetView the /fleet endpoint reads.
	view atomic.Pointer[FleetView]
}

// Run farms the units to worker subprocesses and supervises them until
// every unit is completed or quarantined. It returns ErrNoWorkers when
// the worker fleet never materializes or collapses entirely — the caller
// falls back in-process; everything merged (including Harvest) is kept.
func Run(cfg *Config) (*Result, error) {
	if cfg.Workers < 1 || len(cfg.Units) == 0 {
		return &Result{}, ErrNoWorkers
	}
	if cfg.ReadyTimeout <= 0 {
		lt := cfg.LeaseTimeout
		if lt <= 0 {
			lt = 10 * time.Second
		}
		cfg.ReadyTimeout = 4 * lt
	}
	if cfg.Transport == nil {
		cfg.Transport = &SubprocessTransport{Command: cfg.Command}
	}
	defer cfg.Transport.Close()
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	c := &coordinator{
		cfg:    cfg,
		table:  NewTable(cfg.Units, TableConfig{LeaseTimeout: cfg.LeaseTimeout, Backoff: cfg.Backoff, MaxAssign: cfg.MaxAssign, Now: cfg.Now}),
		events: make(chan event, 4*cfg.Workers+16),
		merged: map[mergeKey]bool{},
		res:    &Result{},
		fleet:  map[int]*genFleet{},
	}
	c.idleSince = time.Now()
	if cfg.ChaosKills > 0 {
		c.rng = rand.New(rand.NewSource(cfg.ChaosSeed))
		// Spread the kills across the run: each fires once the completed
		// count crosses its threshold.
		for k := 0; k < cfg.ChaosKills; k++ {
			c.killAt = append(c.killAt, 1+c.rng.Intn(maxInt(1, len(cfg.Units)-1)))
		}
		sort.Ints(c.killAt)
	}
	for i := 0; i < cfg.Workers; i++ {
		s := &workerSlot{id: i}
		c.slots = append(c.slots, s)
		c.spawn(s)
	}
	obs.SetFleetSource(func() any { return c.view.Load() })
	defer obs.SetFleetSource(nil)
	defer c.shutdownAll()
	err := c.loop(now)
	c.harvest()
	c.res.Counters = c.table.Counters()
	c.res.QuarantinedKeys = c.table.QuarantinedKeys()
	c.res.Fleet = c.buildFleet()
	return c.res, err
}

// buildFleet assembles the cross-process metric merge from the
// per-incarnation folds, harvesting flight recordings of dead
// incarnations on the way.
func (c *coordinator) buildFleet() *obs.FleetReport {
	f := &obs.FleetReport{TraceID: c.cfg.TraceID, Merged: &obs.Snapshot{}}
	gens := make([]int, 0, len(c.fleet))
	for gen := range c.fleet {
		gens = append(gens, gen)
	}
	sort.Ints(gens)
	for _, gen := range gens {
		g := c.fleet[gen]
		w := &obs.WorkerFleetReport{
			Worker: g.gen,
			Slot:   g.slot,
			Units:  g.units,
			Died:   g.died,
			Killed: g.killed,
			Merged: g.merged,
		}
		if g.died && g.flightPath != "" {
			evs, err := obs.ReadFlightFile(g.flightPath)
			if err != nil {
				obs.Debugf("shard: flight harvest worker %d: %v", g.gen, err)
			}
			w.Flight = evs
		}
		f.Merged.Merge(g.merged)
		f.Workers = append(f.Workers, w)
	}
	return f
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// maxRestarts bounds respawns per worker slot (systemic-failure brake;
// poison units are handled by Config.MaxAssign, not this).
const maxRestarts = 5

// burnRestart charges one respawn against a slot's budget; false means
// the budget is exhausted and the slot has been retired.
func (c *coordinator) burnRestart(s *workerSlot) bool {
	s.restarts++
	c.res.WorkerRestarts++
	mWorkerRestarts.Inc()
	if s.restarts > maxRestarts {
		obs.Warnf("shard: worker %d exceeded restart budget (%d); retiring slot", s.id, maxRestarts)
		s.dead = true
		return false
	}
	return true
}

// spawn attaches a worker to a slot via the transport and sends its
// Hello. A deferred transport with no dialed worker leaves the slot
// down for the tick to retry (no budget charge); a connection that
// fails, or a respawn, burns the restart budget, and exhaustion marks
// the slot dead.
func (c *coordinator) spawn(s *workerSlot) {
	if s.dead {
		return
	}
	conn, ok, err := c.cfg.Transport.Connect()
	if err != nil {
		// Every failed connect burns the restart budget — including a
		// slot that never attached (gen 0), so a permanently unspawnable
		// command retires all slots and the run collapses to ErrNoWorkers
		// instead of retrying forever. Budget remaining: the next tick
		// retries via spawnIfNeeded.
		obs.Warnf("shard: connect worker %d: %v", s.id, err)
		s.alive = false
		c.burnRestart(s)
		return
	}
	if !ok {
		// No remote worker has dialed in yet: stay down without charging
		// the budget — one may attach at any moment, and total absence is
		// bounded by the deferred-idle check in loop().
		s.alive = false
		return
	}
	if s.gen != 0 {
		// Any respawn after the initial attach is a restart.
		if !c.burnRestart(s) {
			conn.Kill()
			return
		}
	}
	c.genSeq++
	gen := c.genSeq
	s.gen, s.ready, s.alive, s.busy = gen, false, true, false
	s.readyDeadline = time.Now().Add(c.cfg.ReadyTimeout)
	s.conn = conn

	rd := conn.Reader()
	go func(gen int) {
		for {
			env, rerr := ReadFrame(rd)
			if rerr != nil {
				c.events <- event{worker: s.id, gen: gen, err: rerr}
				return
			}
			c.events <- event{worker: s.id, gen: gen, env: env}
		}
	}(gen)
	go func(gen int, conn WorkerConn) {
		werr := conn.Wait()
		c.events <- event{worker: s.id, gen: gen, exited: true, err: werr}
	}(gen, conn)

	hello := *c.cfg.Hello
	hello.JournalPath = c.cfg.JournalPath(gen)
	hello.TraceID = c.cfg.TraceID
	hello.Worker = gen
	if c.cfg.FlightPath != nil {
		hello.FlightPath = c.cfg.FlightPath(gen)
	}
	c.paths = append(c.paths, hello.JournalPath)
	c.fleet[gen] = &genFleet{gen: gen, slot: s.id, flightPath: hello.FlightPath}
	obs.RecordFlight(obs.FlightWorkerSpawn, uint64(gen), uint64(s.id), 0)
	if werr := WriteFrame(conn, &Envelope{Kind: KindHello, Hello: &hello}); werr != nil {
		obs.Warnf("shard: hello worker %d (gen %d): %v", s.id, gen, werr)
		conn.Kill()
		s.alive = false
		s.conn = nil
		// The reader/waiter goroutines surface the death as events; the
		// tick respawns via spawnIfNeeded.
	}
}

// kill terminates a slot's current worker (lease cleanup happens when
// the reader reports EOF / exit).
func (c *coordinator) kill(s *workerSlot) {
	if s.conn != nil {
		s.conn.Kill()
	}
}

// failSlot handles a slot's process death or frame corruption: expire
// its leases immediately and respawn.
func (c *coordinator) failSlot(s *workerSlot, why string) {
	if !s.alive && s.conn == nil {
		// Already failed (e.g. corrupt frame handled, then exit event).
		c.spawnIfNeeded(s)
		return
	}
	obs.Warnf("shard: worker %d (gen %d) failed: %s", s.id, s.gen, why)
	c.kill(s)
	s.alive, s.ready, s.busy = false, false, false
	s.conn = nil
	if g := c.fleet[s.gen]; g != nil {
		g.died = true
	}
	obs.RecordFlight(obs.FlightWorkerDead, uint64(s.gen), uint64(s.id), 0)
	for _, ex := range c.table.FailWorker(s.id, s.gen) {
		c.noteExpiry(ex)
	}
	c.spawnIfNeeded(s)
}

// spawnIfNeeded respawns a non-alive, non-dead slot while work remains.
func (c *coordinator) spawnIfNeeded(s *workerSlot) {
	if !s.alive && !s.dead && !c.table.Done() {
		c.spawn(s)
	}
}

func (c *coordinator) noteExpiry(ex Expiry) {
	mLeasesExpired.Inc()
	obs.RecordFlight(obs.FlightLeaseExpired, uint64(ex.Index), uint64(ex.Gen), uint64(ex.Fails))
	if ex.Quarantined {
		mUnitsQuarantined.Inc()
		obs.RecordFlight(obs.FlightQuarantine, uint64(ex.Index), ex.Key, uint64(ex.Fails))
		obs.Warnf("shard: unit %d (key %#x) quarantined after %d failed leases — subtree degrades to Unknown", ex.Index, ex.Key, ex.Fails)
	} else {
		obs.Progressf("shard: unit %d lease expired (worker %d gen %d, attempt %d); reassigning with backoff", ex.Index, ex.Worker, ex.Gen, ex.Fails)
	}
}

// assignIdle hands pending units to every idle ready worker.
func (c *coordinator) assignIdle() {
	for _, s := range c.slots {
		if !s.alive || !s.ready || s.busy {
			continue
		}
		u, ok := c.table.Acquire(s.id, s.gen)
		if !ok {
			return // nothing assignable right now
		}
		mLeasesIssued.Inc()
		obs.RecordFlight(obs.FlightLeaseIssued, uint64(u.Index), uint64(s.gen), u.Key)
		if err := WriteFrame(s.conn, &Envelope{Kind: KindAssign, Assign: &Assign{Index: u.Index, Key: u.Key}}); err != nil {
			c.failSlot(s, fmt.Sprintf("assign write: %v", err))
			continue
		}
		s.busy, s.unit, s.unitPaths = true, u, 0
	}
}

// mergeRecords folds a batch of worker records into the coordinator's
// journal, deduplicating by (kind, key): lease races and harvest
// overlaps produce byte-identical records for the same key, so first
// observation wins and the rest are counted duplicates.
func (c *coordinator) mergeRecords(recs []journal.Record, harvested bool) {
	for _, r := range recs {
		k := mergeKey{r.Kind, r.Key}
		if c.merged[k] {
			c.res.DuplicateRecs++
			mRecordsDuplicate.Inc()
			continue
		}
		if err := c.cfg.Merge(r); err != nil {
			obs.Warnf("shard: merge record: %v", err)
			return
		}
		c.merged[k] = true
		c.res.MergedRecords++
		mRecordsMerged.Inc()
		if harvested {
			c.res.HarvestedRecs++
			mRecordsHarvested.Inc()
		}
	}
}

// chaosMaybeKill fires pending chaos kills whose completed-unit
// threshold has been crossed, choosing a seeded-random victim among the
// workers that have answered Ready: one that is still booting has not
// opened its flight file yet (Handler.Init does, before Ready), so killing
// it would test nothing the harvest can show. A kill that finds nobody
// ready stays pending for the next completion.
func (c *coordinator) chaosMaybeKill(completed int) {
	for len(c.killAt) > 0 && completed >= c.killAt[0] {
		var ready []*workerSlot
		for _, s := range c.slots {
			if s.alive && s.ready {
				ready = append(ready, s)
			}
		}
		if len(ready) == 0 {
			return
		}
		c.killAt = c.killAt[1:]
		victim := ready[c.rng.Intn(len(ready))]
		obs.Progressf("shard: chaos: SIGKILL worker %d (gen %d)", victim.id, victim.gen)
		c.res.KillsInjected++
		mKillsInjected.Inc()
		if g := c.fleet[victim.gen]; g != nil {
			g.killed = true
		}
		obs.RecordFlight(obs.FlightChaosKill, uint64(victim.gen), uint64(completed), 0)
		c.kill(victim)
		// Death is observed through the reader EOF / exit events.
	}
}

// anyUsable reports whether any slot is alive or can still be respawned.
func (c *coordinator) anyUsable() bool {
	for _, s := range c.slots {
		if !s.dead {
			return true
		}
	}
	return false
}

// loop is the supervision core: single goroutine, event-driven, with a
// tick for lease expiry and backoff release.
func (c *coordinator) loop(now func() time.Time) error {
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	completed := 0
	for !c.table.Done() {
		if !c.anyUsable() {
			return ErrNoWorkers
		}
		select {
		case ev := <-c.events:
			s := c.slots[ev.worker]
			if ev.gen != s.gen {
				continue // stale event from a killed generation
			}
			switch {
			case ev.exited:
				c.failSlot(s, fmt.Sprintf("process exited: %v", ev.err))
			case ev.err == io.EOF:
				c.failSlot(s, "stdout closed")
			case ev.err != nil:
				c.res.CorruptFrames++
				mCorruptFrames.Inc()
				c.failSlot(s, fmt.Sprintf("frame corruption: %v", ev.err))
			default:
				c.handleFrame(s, ev.env, &completed)
			}
		case <-tick.C:
			for _, ex := range c.table.ExpireDue() {
				c.noteExpiry(ex)
				// The holder is presumed hung; kill it so its respawn
				// cannot later complete the reassigned unit slowly.
				holder := c.slots[ex.Worker]
				if holder.alive && holder.gen == ex.Gen {
					c.failSlot(holder, "lease expired (no progress)")
				}
			}
			rnow := time.Now()
			for _, s := range c.slots {
				if s.alive && !s.ready && rnow.After(s.readyDeadline) {
					c.failSlot(s, "ready timeout")
				}
				c.spawnIfNeeded(s)
			}
			if c.cfg.Transport.Deferred() {
				// Deferred transports have no subprocess to fail fast on:
				// an empty fleet just means nobody has dialed yet. Bound
				// the wait so a run with no remote workers collapses to
				// the in-process fallback instead of hanging.
				anyAlive := false
				for _, s := range c.slots {
					if s.alive {
						anyAlive = true
						break
					}
				}
				if anyAlive {
					c.idleSince = rnow
				} else if rnow.Sub(c.idleSince) > c.cfg.ReadyTimeout {
					obs.Warnf("shard: no remote worker attached within %v; giving up", c.cfg.ReadyTimeout)
					return ErrNoWorkers
				}
			}
		}
		c.assignIdle()
		c.publishView()
	}
	c.publishView()
	return nil
}

// publishView refreshes the live gauges and the /fleet snapshot. Runs
// on the supervision loop; the debug server reads the published pointer
// lock-free.
func (c *coordinator) publishView() {
	ctr := c.table.Counters()
	v := &FleetView{
		TraceID:     c.cfg.TraceID,
		Units:       len(c.cfg.Units),
		Completed:   ctr.Completed,
		Quarantined: ctr.Quarantined,
	}
	alive := 0
	for _, s := range c.slots {
		if s.alive {
			alive++
		}
		wv := FleetWorkerView{
			Worker:   s.gen,
			Slot:     s.id,
			Alive:    s.alive,
			Ready:    s.ready,
			Busy:     s.busy,
			Unit:     -1,
			Restarts: s.restarts,
		}
		if s.busy {
			wv.Unit = s.unit.Index
			wv.Paths = s.unitPaths
		}
		v.Workers = append(v.Workers, wv)
	}
	mWorkersAlive.Set(int64(alive))
	mUnitsTotal.Set(int64(len(c.cfg.Units)))
	mUnitsPending.Set(int64(len(c.cfg.Units)) - int64(ctr.Completed) - int64(ctr.Quarantined))
	c.view.Store(v)
}

// handleFrame processes one well-formed frame from a live generation.
func (c *coordinator) handleFrame(s *workerSlot, env *Envelope, completed *int) {
	switch env.Kind {
	case KindReady:
		r := env.Ready
		if r == nil {
			c.failSlot(s, "empty ready frame")
			return
		}
		h := c.cfg.Hello
		if r.Fingerprint != h.Fingerprint || r.FrontierDigest != h.FrontierDigest || r.NumUnits != h.NumUnits {
			// Version skew or nondeterminism: every verdict this worker
			// could produce would be keyed wrong. Retire the slot — a
			// respawn of the same binary cannot fix it.
			obs.Warnf("shard: worker %d diverged (fp %#x/%#x, digest %#x/%#x, units %d/%d); retiring",
				s.id, r.Fingerprint, h.Fingerprint, r.FrontierDigest, h.FrontierDigest, r.NumUnits, h.NumUnits)
			c.kill(s)
			s.alive, s.dead = false, true
			return
		}
		s.ready = true
	case KindProgress:
		p := env.Progress
		if p != nil && s.busy && p.Index == s.unit.Index {
			c.table.Heartbeat(p.Index, s.id, s.gen, p.Paths)
			s.unitPaths = p.Paths
			if p.Metrics != nil {
				if g := c.fleet[s.gen]; g != nil {
					g.live = p.Metrics
				}
			}
		}
	case KindDone:
		d := env.Done
		if d == nil {
			c.failSlot(s, "empty done frame")
			return
		}
		s.busy = false
		ok := c.table.Complete(d.Index, s.id, s.gen)
		if ok {
			mLeasesCompleted.Inc()
			*completed++
			obs.RecordFlight(obs.FlightLeaseCompleted, uint64(d.Index), uint64(s.gen), d.Paths)
			// Fold exactly the first accepted completion's registry delta
			// per unit: deterministic exploration makes any later
			// (superseded) delta for the same unit identical, so this fold
			// counts each unit's solver queries and paths exactly once.
			if g := c.fleet[s.gen]; g != nil {
				g.units = append(g.units, d.Index)
				if d.Metrics != nil {
					if g.merged == nil {
						g.merged = &obs.Snapshot{}
					}
					g.merged.Merge(d.Metrics)
				}
			}
		} else {
			mLeasesSuperseded.Inc()
		}
		// Merge either way: a superseded completion's records are
		// byte-identical for the same keys, and merging is idempotent.
		c.mergeRecords(d.Records, false)
		c.chaosMaybeKill(*completed)
	case KindFail:
		f := env.Fail
		if f == nil {
			c.failSlot(s, "empty fail frame")
			return
		}
		obs.Warnf("shard: worker %d reported unit %d failed: %s", s.id, f.Index, f.Msg)
		s.busy = false
		if f.Metrics != nil {
			if g := c.fleet[s.gen]; g != nil {
				g.live = f.Metrics
			}
		}
		c.res.UnitFails++
		for _, ex := range c.table.FailWorker(s.id, s.gen) {
			c.noteExpiry(ex)
		}
	default:
		c.failSlot(s, fmt.Sprintf("unexpected frame kind %d", env.Kind))
	}
}

// shutdownAll tells live workers to exit, then drains the event channel
// until every live process has been reaped (escalating to SIGKILL after
// a grace period). Draining here also unblocks any reader goroutine
// parked on a full channel.
func (c *coordinator) shutdownAll() {
	remaining := 0
	for _, s := range c.slots {
		if s.alive && s.conn != nil {
			remaining++
			_ = WriteFrame(s.conn, &Envelope{Kind: KindShutdown})
			s.conn.CloseWrite()
		}
	}
	grace := time.After(2 * time.Second)
	killed := false
	for remaining > 0 {
		select {
		case ev := <-c.events:
			if !ev.exited {
				continue
			}
			s := c.slots[ev.worker]
			if ev.gen == s.gen && s.alive {
				s.alive = false
				remaining--
			}
		case <-grace:
			if killed {
				return // second grace period blown: give up reaping
			}
			for _, s := range c.slots {
				if s.alive {
					c.kill(s)
				}
			}
			killed = true
			grace = time.After(2 * time.Second)
		}
	}
}

// harvest scrapes every worker journal ever issued — including those of
// crashed generations — and merges any record not yet seen. A worker
// that died after journaling but before its Done frame thus still
// contributes its work; the torn tail its crash left behind is tolerated
// by the journal loader.
func (c *coordinator) harvest() {
	for _, path := range c.paths {
		recs, err := journal.ReadRecords(path, c.cfg.Fingerprint)
		if err != nil {
			continue // empty, torn-at-header, or never created
		}
		c.mergeRecords(recs, true)
	}
}
