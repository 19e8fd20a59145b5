//go:build unix

package store

import (
	"fmt"
	"syscall"
)

// tryLock makes one non-blocking attempt at the advisory lock: open (or
// create) the sidecar and flock it exclusively. EWOULDBLOCK means a
// live holder exists → ErrStoreBusy; the lock is per open file
// description, so a second Open inside the same process conflicts too
// (single-writer even intra-process).
func tryLock(path string) (*fileLock, error) {
	fd, err := syscall.Open(path, syscall.O_RDWR|syscall.O_CREAT|syscall.O_CLOEXEC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open lock %s: %w", path, err)
	}
	if err := syscall.Flock(fd, syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		syscall.Close(fd)
		if err == syscall.EWOULDBLOCK || err == syscall.EAGAIN {
			return nil, ErrStoreBusy
		}
		return nil, fmt.Errorf("flock %s: %w", path, err)
	}
	return &fileLock{path: path, fd: fd}, nil
}

// release drops the lock. Closing the descriptor releases the flock;
// the sidecar file is left behind (racing openers may hold it open, so
// unlinking would silently split the lock).
func (l *fileLock) release() {
	if l == nil {
		return
	}
	syscall.Flock(l.fd, syscall.LOCK_UN)
	syscall.Close(l.fd)
}
