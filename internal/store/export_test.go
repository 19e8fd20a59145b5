package store

// Ops returns the number of write points executed so far. A counting
// pass (no CrashAt) measures a workload's total write points; the sweep
// then crashes at each one in turn.
func (fp *Failpoints) Ops() int {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.ops
}
