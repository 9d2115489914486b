package skiptrie

import (
	"time"

	"skiptrie/internal/stats"
)

// This file defines the public lifecycle-tracing surface. The
// structure's maintenance machinery — shard migrations, epoch pins,
// retained-node sweeps, journal truncation, watch windows, dump and
// restore — emits structured events through an optional TraceHooks
// sink installed with WithTraceHooks. Events carry enough context
// (shard identity, key counts, durations, pin ages) to attribute a
// latency spike or a memory plateau to the maintenance action that
// caused it, without parsing logs.
//
// Each event reaches a hook exactly once, through the structure's
// internal sink (stats.Trace), in the order the emitting goroutine
// produced it; events from different goroutines are not globally
// ordered. The retention gauges do not come from these events: a
// Metrics snapshot reads them from the structure itself (PinStats,
// registered by attachGauges).

// PinTrace reports an epoch pin transition. Acquire events fire when an
// epoch's pin count rises from zero (Age is 0); release events fire
// when it returns to zero, with Age the wall time the epoch spent
// pinned. LivePins is the structure-wide pin count after the
// transition. Long-lived or leaked snapshot handles surface here as
// release events with large ages — or as acquire events never matched.
type PinTrace struct {
	Acquire  bool
	Epoch    uint64
	Age      time.Duration
	LivePins int
}

// SweepTrace reports one retained-node sweep: Reclaimed nodes freed
// because no pinned epoch could still reach them, Remaining nodes still
// held for live pins.
type SweepTrace struct {
	Reclaimed, Remaining int
}

// JournalTrace reports version-journal segment truncation: Dropped is
// the number of segments freed once no pinned epoch needed them.
type JournalTrace struct {
	Dropped int
}

// MigrationTrace reports one phase of one source shard's migration
// during Split (Split=true) or Merge. Phase is "warm-copy" (the
// source-live copy pass) or "seal-resync" (the seal plus dirty-delta
// replay — the only window writers can observe). Lo and Bits identify
// the source shard's key range; Keys counts the keys the phase
// processed (copied, or replayed from the dirty set).
type MigrationTrace struct {
	Split    bool
	Phase    string
	Lo       uint64
	Bits     uint8
	Keys     int
	Duration time.Duration
}

// WatchTrace reports change-feed window activity. Kind is "cut" (a
// window boundary was cut and its diff computed), "deliver" (a batch
// was handed to the subscriber), or "lag" (the subscriber fell behind
// and a batch was dropped). Events counts the change events in the
// batch.
type WatchTrace struct {
	Kind   string
	Events int
}

// DumpTrace reports dump/restore block progress: one event per
// completed part (Part in [0, Parts)), with Entries the entries that
// part carried. Restore distinguishes restore-side progress.
type DumpTrace struct {
	Restore bool
	Part    int
	Parts   int
	Entries uint64
}

// TraceHooks is the lifecycle event sink installed by WithTraceHooks.
// Any subset of fields may be set; nil fields cost nothing.
//
// Contract: hooks are called synchronously from the goroutine driving
// the traced maintenance action — a slow hook slows that action (never
// a point read or write, which emit no events). Hooks must not call
// back into the structure that emitted the event; doing so can
// deadlock against the locks the emitting path holds. Hooks may be
// called concurrently from different goroutines and must be
// thread-safe.
type TraceHooks struct {
	Pin       func(PinTrace)
	Sweep     func(SweepTrace)
	Journal   func(JournalTrace)
	Migration func(MigrationTrace)
	Watch     func(WatchTrace)
	Dump      func(DumpTrace)
}

// internalTrace converts the public hook set into the internal sink
// threaded through the core/skiplist configs. Unset hooks map to nil
// funcs so emitting paths keep their cheap nil checks.
func (h *TraceHooks) internalTrace() *stats.Trace {
	if h == nil {
		return nil
	}
	t := &stats.Trace{}
	if h.Pin != nil {
		pin := h.Pin
		t.Pin = func(acquire bool, epoch uint64, ageNs int64, livePins int) {
			pin(PinTrace{Acquire: acquire, Epoch: epoch, Age: time.Duration(ageNs), LivePins: livePins})
		}
	}
	if h.Sweep != nil {
		sweep := h.Sweep
		t.Sweep = func(reclaimed, remaining int) {
			sweep(SweepTrace{Reclaimed: reclaimed, Remaining: remaining})
		}
	}
	if h.Journal != nil {
		journal := h.Journal
		t.JournalTruncate = func(dropped int) {
			journal(JournalTrace{Dropped: dropped})
		}
	}
	if h.Migration != nil {
		mig := h.Migration
		t.Migration = func(split bool, phase string, lo uint64, bits uint8, keys int, ns int64) {
			mig(MigrationTrace{Split: split, Phase: phase, Lo: lo, Bits: bits, Keys: keys, Duration: time.Duration(ns)})
		}
	}
	return t
}

// emitWatch delivers a watch event if a Watch hook is installed.
// Nil-receiver safe so call sites need no guard.
func (h *TraceHooks) emitWatch(kind string, events int) {
	if h != nil && h.Watch != nil {
		h.Watch(WatchTrace{Kind: kind, Events: events})
	}
}

// emitDump delivers a dump/restore progress event if a Dump hook is
// installed. Nil-receiver safe so call sites need no guard.
func (h *TraceHooks) emitDump(restore bool, part, parts int, entries uint64) {
	if h != nil && h.Dump != nil {
		h.Dump(DumpTrace{Restore: restore, Part: part, Parts: parts, Entries: entries})
	}
}
