package meissa

// Refusal is a run the library declines before it writes anything. Every
// persistence refusal is one; callers match it with errors.As.
type Refusal struct {
	At     string // the option (an Options or RegressInput field) or file at fault
	Reason string // why no run can honour it
	Fix    string // the way out
}

func (r *Refusal) Error() string { return r.At + ": " + r.Reason + " (" + r.Fix + ")" }

// call is what an option rule reads: the options, and what the entry point
// adds to them — Regress its baseline, StoreExport and StoreStatus that
// they read the store.
type call struct {
	opts                     Options
	baseline                 string
	regress, store, oldRules bool
}

// optionRules are the persistence rules that read the options alone, tested
// in order before a run opens a file. The refusals that read a file come
// where it is read, before anything is written.
var optionRules = []struct {
	breaks func(c call) bool
	r      Refusal
}{
	{func(c call) bool { return !c.store && c.opts.Resume && c.opts.Checkpoint == "" },
		Refusal{"Resume", "requires Checkpoint", "name the checkpoint to resume"}},
	{func(c call) bool { return c.store && c.opts.StorePath == "" },
		Refusal{"StorePath", "unset: there is no store to read", "name the store"}},
	{func(c call) bool { return c.opts.StoreWait != 0 && c.opts.StorePath == "" },
		Refusal{"StoreWait", "set without StorePath: there is no store lock to wait for", "name the store, or leave StoreWait zero"}},
	{func(c call) bool { return c.regress && c.baseline != "" && c.opts.StorePath != "" },
		Refusal{"StorePath", "set with a Baseline checkpoint: the run would commit to a store whose baseline it never read",
			"set Baseline or StorePath, not both"}},
	{func(c call) bool { return c.regress && c.baseline == "" && c.opts.StorePath == "" },
		Refusal{"Baseline", "unset, and so is StorePath: a regression has no baseline", "set Baseline or StorePath"}},
	{func(c call) bool { return c.baseline != "" && c.opts.Checkpoint == c.baseline },
		Refusal{"Checkpoint", "is the Baseline file, which the run reads and never writes", "name another file"}},
	{func(c call) bool { return c.baseline != "" && !c.oldRules },
		Refusal{"OldRules", "unset: a Baseline checkpoint is read under the rules it was generated under", "set OldRules to them"}},
}

// refuse returns the first option rule c breaks, or nil.
func refuse(c call) error {
	for _, rule := range optionRules {
		if rule.breaks(c) {
			return &rule.r
		}
	}
	return nil
}
