package store

import (
	"errors"
	"os"
	"sync"
)

// ErrCrashed is returned by every operation of a FailFS after its crash
// point fired: the simulated process is dead and no further I/O happens.
var ErrCrashed = errors.New("injected crash")

// Failpoints scripts a FailFS. The zero value injects nothing.
type Failpoints struct {
	// CrashAt kills the filesystem at the Nth write point (1-based):
	// write point N executes (fully, or torn when Torn is set and it is a
	// WriteAt), and every operation after it — reads included — returns
	// ErrCrashed. 0 disables.
	CrashAt int
	// Torn makes the crashing write point a torn write: only the first
	// half of the buffer reaches the file before the crash.
	Torn bool
	// FailAt makes the Nth write point return an injected error WITHOUT
	// executing it and without killing the filesystem — the transient-
	// error path (ENOSPC and friends). 0 disables.
	FailAt int

	mu      sync.Mutex
	ops     int
	crashed bool
}

// ErrInjected is the transient error returned at a FailAt point.
var ErrInjected = errors.New("injected I/O error")

// Crashed reports whether the crash point fired.
func (fp *Failpoints) Crashed() bool {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.crashed
}

// Ops returns the number of write points executed so far. A counting
// pass (no CrashAt) measures a workload's total write points; the sweep
// then crashes at each one in turn.
func (fp *Failpoints) Ops() int {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.ops
}

// gate is called before every operation; write points additionally call
// it with point=true. It returns (torn, err): torn instructs a WriteAt
// to write half its buffer before dying.
func (fp *Failpoints) gate(point bool) (bool, error) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if fp.crashed {
		return false, ErrCrashed
	}
	if !point {
		return false, nil
	}
	fp.ops++
	if fp.FailAt > 0 && fp.ops == fp.FailAt {
		return false, ErrInjected
	}
	if fp.CrashAt > 0 && fp.ops == fp.CrashAt {
		fp.crashed = true
		if fp.Torn {
			return true, nil
		}
		// Crash AFTER the syscall: the op executes, the next one fails.
		return false, nil
	}
	return false, nil
}

// FailFS wraps a base filesystem with scripted failpoints shared across
// every file it opens.
type FailFS struct {
	Base FS
	FP   *Failpoints
}

// OpenFile opens through the base filesystem unless crashed.
func (f *FailFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if _, err := f.FP.gate(false); err != nil {
		return nil, err
	}
	bf, err := f.Base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &failFile{base: bf, fp: f.FP}, nil
}

// Remove deletes through the base filesystem unless crashed.
func (f *FailFS) Remove(name string) error {
	if _, err := f.FP.gate(false); err != nil {
		return err
	}
	return f.Base.Remove(name)
}

// Rename is a write point.
func (f *FailFS) Rename(oldname, newname string) error {
	if _, err := f.FP.gate(true); err != nil {
		return err
	}
	return f.Base.Rename(oldname, newname)
}

type failFile struct {
	base File
	fp   *Failpoints
}

func (f *failFile) ReadAt(p []byte, off int64) (int, error) {
	if _, err := f.fp.gate(false); err != nil {
		return 0, err
	}
	return f.base.ReadAt(p, off)
}

func (f *failFile) WriteAt(p []byte, off int64) (int, error) {
	torn, err := f.fp.gate(true)
	if err != nil {
		return 0, err
	}
	if torn {
		n, _ := f.base.WriteAt(p[:len(p)/2], off)
		return n, ErrCrashed
	}
	// At a crash-after point the write lands and the caller learns on its
	// NEXT operation.
	return f.base.WriteAt(p, off)
}

func (f *failFile) Sync() error {
	if _, err := f.fp.gate(true); err != nil {
		return err
	}
	return f.base.Sync()
}

func (f *failFile) Truncate(size int64) error {
	if _, err := f.fp.gate(true); err != nil {
		return err
	}
	return f.base.Truncate(size)
}

func (f *failFile) Close() error { return f.base.Close() }

func (f *failFile) Size() (int64, error) {
	if _, err := f.fp.gate(false); err != nil {
		return 0, err
	}
	return f.base.Size()
}
