package daemon

import (
	"errors"
	"sort"
	"sync"
)

// ErrSchedClosed is returned from Acquire when the daemon is draining.
var ErrSchedClosed = errors.New("daemon: scheduler closed")

// ticket is one queued request waiting for an execution slot.
type ticket struct {
	tenant  string
	family  string
	granted bool
	ready   chan struct{}
}

// sched is the daemon's fair-share admission queue. Two invariants:
//
//   - at most maxRun requests execute concurrently;
//   - at most one request per family executes at a time, so one request's
//     warm read, run and store commit never interleave with another's.
//
// Admission is least-recently-granted across tenants: each grant
// stamps the tenant with a logical clock, and dispatch always offers
// the next free slot to the waiting tenant served longest ago — so a
// tenant flooding requests cannot starve another tenant's single
// queued request.
type sched struct {
	mu        sync.Mutex
	maxRun    int
	queues    map[string][]*ticket
	lastGrant map[string]uint64
	clock     uint64
	running   int
	busyFam   map[string]bool
	closed    bool
}

func newSched(maxRun int) *sched {
	if maxRun < 1 {
		maxRun = 1
	}
	return &sched{
		maxRun:    maxRun,
		queues:    map[string][]*ticket{},
		lastGrant: map[string]uint64{},
		busyFam:   map[string]bool{},
	}
}

// admissible reports whether t can run right now (mu held).
func (s *sched) admissible(t *ticket) bool {
	return s.running < s.maxRun && (t.family == "" || !s.busyFam[t.family])
}

// dispatchLocked grants as many queue heads as fit. Each pass offers
// the slot to waiting tenants in least-recently-granted order (ties by
// name, so the order is deterministic); a full pass with no grant
// stops.
func (s *sched) dispatchLocked() {
	for {
		var order []string
		for tenant, q := range s.queues {
			if len(q) > 0 {
				order = append(order, tenant)
			}
		}
		sort.Slice(order, func(i, j int) bool {
			gi, gj := s.lastGrant[order[i]], s.lastGrant[order[j]]
			if gi != gj {
				return gi < gj
			}
			return order[i] < order[j]
		})
		grantedAny := false
		for _, tenant := range order {
			q := s.queues[tenant]
			t := q[0]
			if !s.admissible(t) {
				continue
			}
			s.queues[tenant] = q[1:]
			s.running++
			if t.family != "" {
				s.busyFam[t.family] = true
			}
			s.clock++
			s.lastGrant[tenant] = s.clock
			t.granted = true
			close(t.ready)
			grantedAny = true
			break
		}
		if !grantedAny {
			return
		}
	}
}

// Acquire blocks until the request is admitted, then returns a release
// function the caller must invoke exactly once when the request's work
// (including its store transaction) is done.
func (s *sched) Acquire(tenant, family string) (release func(), err error) {
	if tenant == "" {
		tenant = "default"
	}
	t := &ticket{tenant: tenant, family: family, ready: make(chan struct{})}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSchedClosed
	}
	s.queues[tenant] = append(s.queues[tenant], t)
	s.dispatchLocked()
	s.mu.Unlock()

	<-t.ready
	s.mu.Lock()
	granted := t.granted
	s.mu.Unlock()
	if !granted {
		return nil, ErrSchedClosed
	}

	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			s.running--
			if t.family != "" {
				delete(s.busyFam, t.family)
			}
			s.dispatchLocked()
			s.mu.Unlock()
		})
	}, nil
}

// Depth returns the number of queued (not yet admitted) requests.
func (s *sched) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, q := range s.queues {
		n += len(q)
	}
	return n
}

// Running returns the number of admitted, still-executing requests.
func (s *sched) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// Close rejects every queued ticket and all future Acquires. Admitted
// requests keep their slots; their release functions still work.
func (s *sched) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for tenant, q := range s.queues {
		for _, t := range q {
			close(t.ready)
		}
		s.queues[tenant] = nil
	}
}
