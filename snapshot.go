package skiptrie

import (
	"runtime"

	"skiptrie/internal/shard"
)

// Snapshot is an immutable point-in-time view of a Map or Sharded,
// returned by their Snapshot methods. Unlike the live ordered reads —
// which are weakly consistent and can miss keys that churn mid-scan —
// a snapshot is strictly consistent: it holds exactly the keys that
// were live at its pin point, with the values they held then, no matter
// how long the drain takes or what writers (or shard splits and merges)
// do meanwhile. That makes it the right read for backups, paginated
// listings that must not skip or duplicate entries, and analytics that
// need one coherent view of a hot map.
//
// For a Map the pin point is one instant. For a Sharded the shards are
// pinned one at a time — O(1) per shard, no quiescence, writers never
// pause — so each shard's slice of the view is exact at its own pin
// instant and the composite is the "shards pinned in key order" view.
//
// Taking a snapshot is O(shards): nothing is copied. The cost is paid
// by the writers that overlap the snapshot's lifetime: a delete retains
// its node and an overwrite retains the superseded value until no open
// snapshot can see them, so memory grows with the churn during — not
// the length of — the snapshot's life. Close releases the pins and must
// be called exactly once, when no reads are in flight; reads after
// Close are invalid. A snapshot also remains readable after the
// structure's Close (which only stops the reshard balancer).
//
// All methods are safe for concurrent use; each cursor, as always,
// belongs to a single goroutine.
type Snapshot[V any] struct {
	sn      *shard.Snap[V]
	m       *Metrics
	h       *TraceHooks
	cleanup runtime.Cleanup
}

// leakedPin is the state a snapshot leak-guard cleanup runs against.
type leakedPin[V any] struct {
	sn *shard.Snap[V]
	m  *Metrics
}

// Snapshot returns a point-in-time view of the map: each shard of the
// current partition is pinned at its current epoch, one at a time, with
// no global quiescence (a Map has one shard, so one O(1) pin). On a
// Sharded the view stays valid — and unchanged — across concurrent
// Split and Merge: a drained shard's frozen trie is wired into the
// handle as-is rather than copied. See Snapshot (the type) for the
// consistency contract and Close discipline.
func (e *engine[V]) Snapshot() *Snapshot[V] {
	sn := &Snapshot[V]{sn: e.t.Snapshot(), m: e.m, h: e.h}
	// The leak guard: if the handle is garbage-collected without Close,
	// the cleanup releases the pins anyway (so retained nodes do not
	// accumulate forever) and counts the leak in Metrics.LeakedPins. Its
	// argument holds the pinned view, not the handle: a cleanup
	// argument must not keep its own pointer alive.
	sn.cleanup = runtime.AddCleanup(sn, func(a leakedPin[V]) {
		if a.sn.Close() {
			a.m.leakedPin()
		}
	}, leakedPin[V]{sn: sn.sn, m: e.m})
	return sn
}

// Load returns the value key held at the snapshot's pin point. It
// records into the owning structure's Metrics exactly as a live Load
// does; cursor scans stay unrecorded, matching the live scan paths.
func (sn *Snapshot[V]) Load(key uint64) (V, bool) {
	c := sn.m.op()
	v, ok := sn.sn.Load(key, c)
	sn.m.record(OpContains, c)
	return v, ok
}

// Range calls fn on each key/value with key >= from, in ascending
// order, until fn returns false — over the pinned view: exactly the
// pairs live at the pin point, regardless of concurrent updates.
func (sn *Snapshot[V]) Range(from uint64, fn func(key uint64, val V) bool) {
	it := sn.sn.MakeIter(nil)
	for ok := it.Seek(from); ok; ok = it.Next() {
		if !fn(it.Key(), it.Value()) {
			return
		}
	}
}

// Descend calls fn on each key/value with key <= from, in descending
// order, until fn returns false — over the pinned view.
func (sn *Snapshot[V]) Descend(from uint64, fn func(key uint64, val V) bool) {
	it := sn.sn.MakeIter(nil)
	for ok := it.SeekLE(from); ok; ok = it.Prev() {
		if !fn(it.Key(), it.Value()) {
			return
		}
	}
}

// Keys returns every key live at the pin point, in ascending order.
func (sn *Snapshot[V]) Keys() []uint64 {
	var keys []uint64
	sn.Range(0, func(k uint64, _ V) bool {
		keys = append(keys, k)
		return true
	})
	return keys
}

// Iter returns a new unpositioned cursor over the pinned view, with the
// same navigation surface as the live Iter. The cursor must not
// outlive the snapshot's Close.
func (sn *Snapshot[V]) Iter() *Iter[V] { return &Iter[V]{it: sn.sn.MakeIter(nil)} }

// Close releases the snapshot's pins so retained nodes and value
// versions can be reclaimed, and reports whether this call closed it
// (only the first call does). Reads must not be in flight or issued
// after Close. Forgetting Close does not corrupt anything — a leak
// guard releases the pins when the handle is garbage-collected, and
// counts the leak in Metrics.LeakedPins — but until then keys deleted
// during the snapshot's life stay resident.
func (sn *Snapshot[V]) Close() bool {
	if !sn.sn.Close() {
		return false
	}
	sn.cleanup.Stop()
	return true
}

// SetSnapshot is an immutable point-in-time view of a SkipTrie (the
// set form), returned by its Snapshot method — the same strictly
// consistent pinned view as Snapshot, over membership instead of
// key/value pairs. It shares Snapshot's cost model, Close discipline
// and leak guard.
type SetSnapshot struct {
	sn *Snapshot[struct{}]
}

// Snapshot returns a point-in-time view of the set, pinned at the
// current epoch. The pin is O(1); see SetSnapshot for the contract.
func (s *SkipTrie) Snapshot() *SetSnapshot {
	return &SetSnapshot{sn: s.e.Snapshot()}
}

// Contains reports whether key was in the set at the pin point.
func (sn *SetSnapshot) Contains(key uint64) bool {
	_, ok := sn.sn.Load(key)
	return ok
}

// Range calls fn on each key >= from, in ascending order, until fn
// returns false — over the pinned view.
func (sn *SetSnapshot) Range(from uint64, fn func(key uint64) bool) {
	sn.sn.Range(from, func(k uint64, _ struct{}) bool { return fn(k) })
}

// Descend calls fn on each key <= from, in descending order, until fn
// returns false — over the pinned view.
func (sn *SetSnapshot) Descend(from uint64, fn func(key uint64) bool) {
	sn.sn.Descend(from, func(k uint64, _ struct{}) bool { return fn(k) })
}

// Keys returns every key live at the pin point, in ascending order.
func (sn *SetSnapshot) Keys() []uint64 { return sn.sn.Keys() }

// Diff streams the net membership changes from this snapshot to the
// newer snapshot of the same set: added=true for keys present at newer
// but not here, added=false for keys removed. Same contract and errors
// as Snapshot.Diff.
func (sn *SetSnapshot) Diff(newer *SetSnapshot, emit func(key uint64, added bool) bool) error {
	return sn.sn.Diff(newer.sn, func(e DiffEvent[struct{}]) bool {
		return emit(e.Key, e.Kind == DiffPut)
	})
}

// Close releases the snapshot's pins; see Snapshot.Close.
func (sn *SetSnapshot) Close() bool { return sn.sn.Close() }
