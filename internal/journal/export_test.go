package journal

import "fmt"

// Sync writes the pending batch and flushes the file to stable storage.
// Beyond the batch, not required for kill-safety (the page cache survives
// process death); the tests call it to read a file mid-run.
func (j *Journal) Sync() error {
	if j.f == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.flush(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	return j.f.Sync()
}
