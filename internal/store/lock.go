package store

import (
	"errors"
	"time"
)

// ErrStoreBusy reports that another process (or another open handle in
// this one) holds the store's advisory lock. The store is single-writer
// by design — a `-store` run holds its handle from open to close — so a
// second CLI run on the same store must fail cleanly here instead of
// appending over the first one's frames. Callers retry with
// Options.LockWait (the `-store-wait` flag).
var ErrStoreBusy = errors.New("busy (locked by another process)")

// lockPollInterval paces LockWait retries. Coarse on purpose: the lock
// is held for a whole run, not per transaction, so sub-50ms polling
// buys nothing.
const lockPollInterval = 50 * time.Millisecond

// fileLock is one acquired advisory lock (a flock'd sidecar file at
// path+"-lock"; locking the sidecar instead of the main file keeps the
// lock orthogonal to the FS injection layer and to O_CREATE races).
type fileLock struct {
	path string
	fd   int
}

// acquireLock takes the store's advisory lock, retrying for up to wait
// before giving up with ErrStoreBusy. A zero wait makes exactly one
// attempt. The lock dies with the process (flock semantics), so a
// SIGKILL'd run never leaves the store permanently unopenable.
func acquireLock(path string, wait time.Duration) (*fileLock, error) {
	deadline := time.Now().Add(wait)
	for {
		l, err := tryLock(path)
		if err == nil {
			return l, nil
		}
		if !errors.Is(err, ErrStoreBusy) || time.Now().Add(lockPollInterval).After(deadline) {
			return nil, err
		}
		time.Sleep(lockPollInterval)
	}
}
