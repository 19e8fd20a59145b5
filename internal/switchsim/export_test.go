package switchsim

// ResetRegisters zeroes the persistent register file.
func (t *Target) ResetRegisters() { clear(t.m.slots[t.vars.PerPacket():t.vars.Len()]) }
