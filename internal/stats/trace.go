package stats

// Trace is the internal lifecycle-event sink threaded through the
// skiplist/core/shard configs. The public layer (skiptrie.TraceHooks)
// builds one of these and fans the events back out to user callbacks
// and gauges; internal layers only see these narrow funcs. A nil *Trace
// or a nil field disables that event class at the cost of one branch.
//
// Callbacks run synchronously on the emitting goroutine — on lifecycle
// paths only (pin/release, sweeps, migrations, truncation), never on
// point-operation hot paths — and must not call back into the emitting
// structure.
type Trace struct {
	// Pin reports an epoch pin acquire (age 0) or release (ageNs = time
	// the epoch stayed pinned). livePins is the pin count after the
	// event.
	Pin func(acquire bool, epoch uint64, ageNs int64, livePins int)
	// Sweep reports a retained-node sweep that reclaimed at least one
	// node; remaining is the retained-set size left behind.
	Sweep func(reclaimed, remaining int)
	// JournalTruncate reports journal-segment truncation on a pin
	// horizon move; dropped is the number of segments freed.
	JournalTruncate func(dropped int)
	// Migration reports one phase of a shard migration: phase is
	// "warm-copy" (the pinned view copied) or "seal-resync" (the seal
	// and the journal replay), lo/bits identify the source shard's
	// range, keys is the number of keys the phase moved (copied, or
	// replayed because they differ between the copy's and the seal's
	// pinned views).
	Migration func(split bool, phase string, lo uint64, bits uint8, keys int, ns int64)
}
