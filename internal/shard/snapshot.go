package shard

import (
	"sync/atomic"

	"skiptrie/internal/stats"
)

// Snap is a point-in-time view of the whole sharded trie: one routing
// table snapshot plus one pinned epoch per bucket. It is created by
// Snapshot, stays valid under concurrent writers and concurrent
// Split/Merge, and must be released with Close.
//
// # Pin protocol
//
// Snapshot loads the current routing table once and then pins each of
// its buckets in key order — bump-and-collect, one O(1) pin per shard,
// with no global quiescence and no stop-the-world: writers to shard i+1
// proceed freely while shard i is being pinned. Each shard's view is
// therefore strictly consistent at its own pin instant (every key live
// at the pin appears, nothing newer does); the cross-shard composite is
// a "shards pinned one at a time" view, the strongest read the
// structure offers without suspending writers.
//
// # Resharding
//
// The handle survives Split and Merge for free. A drain never mutates
// its source shard's trie beyond the writes that were headed there
// anyway: the warm copy reads, the seal freezes, and after retirement
// the bucket's trie holds its final truth forever — a drained frozen
// shard already is a snapshot, so the handle keeps reading the retired
// bucket it pinned rather than copying anything. Writes rerouted to the
// replacement buckets are stamped after this snapshot's pins and would
// be invisible to it even if it looked, so not looking loses nothing.
// The retained table also keeps retired buckets referenced, so a
// long-lived snapshot holds their memory until Close.
type Snap[V any] struct {
	t      *Trie[V]
	tab    *table[V]
	pins   []uint64 // pinned epoch per bucket, parallel to tab.buckets
	closed atomic.Bool
}

// Snapshot pins every shard of the current partition, one at a time,
// and returns the composite view.
func (t *Trie[V]) Snapshot() *Snap[V] {
	tab := t.tab.Load()
	pins := make([]uint64, len(tab.buckets))
	for i, b := range tab.buckets {
		pins[i] = b.trie.PinEpoch()
	}
	return &Snap[V]{t: t, tab: tab, pins: pins}
}

// Load returns the value key held when key's shard was pinned.
func (sn *Snap[V]) Load(key uint64, c *stats.Op) (V, bool) {
	if !sn.t.inUniverse(key) {
		var zero V
		return zero, false
	}
	b, i := sn.tab.routeIdx(key)
	return b.trie.FindAt(key, sn.pins[i], c)
}

// Close releases every shard's pin, allowing retained nodes to be
// reclaimed (and, once no cursor holds the table either, retired
// buckets to be collected). It reports whether this call closed the
// snapshot; only the first call does, and reads must not be in flight
// or issued after it.
func (sn *Snap[V]) Close() bool {
	if !sn.closed.CompareAndSwap(false, true) {
		return false
	}
	for i, b := range sn.tab.buckets {
		b.trie.ReleaseEpoch(sn.pins[i])
	}
	return true
}

// MakeIter returns an unpositioned cursor over the snapshot: the
// shared concatenating cursor (see Iter), walking the snapshot's table
// and pinned epochs instead of the live partition.
func (sn *Snap[V]) MakeIter(c *stats.Op) Iter[V] {
	return Iter[V]{t: sn.t, tab: sn.tab, pins: sn.pins, c: c}
}
