package metrics

// FieldCounters has no effect: nothing records into it and Snapshot is
// always zero. Kept because bench/ sets it.
type FieldCounters struct{}

// Snapshot returns the zero FieldStats. Safe on a nil receiver.
func (c *FieldCounters) Snapshot() FieldStats { return FieldStats{} }

// FieldStats has no effect: FieldCounters.Snapshot always returns the
// zero value. Kept because bench/ reads it.
type FieldStats struct {
	Samples      uint64
	CapsuleTests uint64
}
