package daemon

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// acquireAsync runs Acquire in a goroutine and reports admission via
// the returned channel.
func acquireAsync(s *sched, tenant, family string) (admitted chan struct{}, release func(), errc chan error) {
	admitted = make(chan struct{})
	errc = make(chan error, 1)
	relc := make(chan func(), 1)
	go func() {
		rel, err := s.Acquire(tenant, family)
		if err != nil {
			errc <- err
			return
		}
		relc <- rel
		close(admitted)
	}()
	return admitted, func() {
		(<-relc)()
	}, errc
}

func mustAdmit(t *testing.T, admitted chan struct{}, what string) {
	t.Helper()
	select {
	case <-admitted:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: not admitted within 5s", what)
	}
}

func mustBlock(t *testing.T, admitted chan struct{}, what string) {
	t.Helper()
	select {
	case <-admitted:
		t.Fatalf("%s: admitted but should have blocked", what)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestSchedConcurrencyCap(t *testing.T) {
	s := newSched(2)
	rel1, err := s.Acquire("a", "f1")
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := s.Acquire("a", "f2")
	if err != nil {
		t.Fatal(err)
	}
	adm3, rel3, _ := acquireAsync(s, "a", "f3")
	mustBlock(t, adm3, "third acquire at cap 2")
	rel1()
	mustAdmit(t, adm3, "third acquire after release")
	rel2()
	rel3()
	if got := s.Running(); got != 0 {
		t.Fatalf("running = %d after all releases, want 0", got)
	}
}

func TestSchedFamilySerialized(t *testing.T) {
	s := newSched(8)
	rel1, err := s.Acquire("a", "fam")
	if err != nil {
		t.Fatal(err)
	}
	adm2, rel2, _ := acquireAsync(s, "b", "fam")
	mustBlock(t, adm2, "same-family acquire")
	// A different family is admissible while fam is busy.
	rel3, err := s.Acquire("c", "other")
	if err != nil {
		t.Fatal(err)
	}
	rel3()
	rel1()
	mustAdmit(t, adm2, "same-family acquire after release")
	rel2()
}

// TestSchedTenantFairness floods tenant A's queue, then enqueues one
// request from tenant B: round-robin admission must grant B's request
// on the very next free slot rather than draining A's backlog first.
func TestSchedTenantFairness(t *testing.T) {
	s := newSched(1)
	relRunning, err := s.Acquire("a", "f0")
	if err != nil {
		t.Fatal(err)
	}
	const flood = 10
	admA := make([]chan struct{}, flood)
	relA := make([]func(), flood)
	for i := 0; i < flood; i++ {
		admA[i], relA[i], _ = acquireAsync(s, "a", "")
		// Order A's queue deterministically.
		time.Sleep(5 * time.Millisecond)
	}
	admB, relB, _ := acquireAsync(s, "b", "")
	mustBlock(t, admB, "tenant b behind the flood")

	relRunning()
	mustAdmit(t, admB, "tenant b on the first free slot")
	for i := 0; i < flood; i++ {
		mustBlock(t, admA[i], "tenant a while b holds the slot")
		break
	}
	relB()
	for i := 0; i < flood; i++ {
		mustAdmit(t, admA[i], "tenant a backlog drain")
		relA[i]()
	}
}

func TestSchedCloseRejectsQueued(t *testing.T) {
	s := newSched(1)
	rel, err := s.Acquire("a", "f")
	if err != nil {
		t.Fatal(err)
	}
	_, _, errc := acquireAsync(s, "b", "g")
	time.Sleep(50 * time.Millisecond)
	s.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrSchedClosed) {
			t.Fatalf("queued acquire error = %v, want ErrSchedClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued acquire not rejected after Close")
	}
	// The admitted request's release still works after Close.
	rel()
	if _, err := s.Acquire("c", "h"); !errors.Is(err, ErrSchedClosed) {
		t.Fatalf("post-Close acquire error = %v, want ErrSchedClosed", err)
	}
}

// TestSchedStress hammers the scheduler from many tenants under -race,
// checking the caps hold at every admission.
func TestSchedStress(t *testing.T) {
	const maxRun = 3
	s := newSched(maxRun)
	var peak, cur, violations int
	var mu sync.Mutex
	var wg sync.WaitGroup
	tenants := []string{"a", "b", "c", "d"}
	families := []string{"f1", "f2", ""}
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rel, err := s.Acquire(tenants[i%len(tenants)], families[i%len(families)])
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			mu.Lock()
			cur++
			if cur > peak {
				peak = cur
			}
			if cur > maxRun {
				violations++
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			cur--
			mu.Unlock()
			rel()
		}(i)
	}
	wg.Wait()
	if violations > 0 {
		t.Fatalf("concurrency cap violated %d times (peak %d > %d)", violations, peak, maxRun)
	}
}
