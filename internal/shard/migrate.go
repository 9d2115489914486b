package shard

import (
	"fmt"
	"slices"
	"time"

	"skiptrie/internal/core"
)

// This file implements online shard migration: Split divides one shard
// into two half-universe children, Merge rejoins two buddy siblings.
// Both run one drain (migrate), which reads each source through the
// same pin, snapshot cursor and change journal a snapshot diff uses:
//
//  1. Warm copy (source live). The source's epoch is pinned (warmPin)
//     and the view at warmPin is copied into the destination tries
//     through the snapshot cursor. The pinned view cannot change under
//     the cursor, so the destinations end the pass holding exactly the
//     source's contents at warmPin, while writers keep landing in the
//     source.
//
//  2. Seal. The source is flipped to sealed under its write latch —
//     the latch acquisition is the linearization barrier: once it is
//     taken, no write is in flight. From here the source is frozen
//     forever. Writers that still route to it (via the soon-to-be-
//     replaced table) spin re-routing until the new table lands;
//     readers may keep answering from it.
//
//  3. Journal resync (source frozen). The source is pinned again
//     (sealPin). Every pin bumps the clock, so sealPin > warmPin, and
//     with no write in flight the view at sealPin is the source's
//     frozen final contents. The journal diff DiffEpochs(warmPin,
//     sealPin) — the walk Snap.DiffTo runs for a shared bucket — is
//     replayed into the destinations as Store/Delete. It resolves each
//     key written in the window against both pinned views: a key
//     inserted and deleted during the copy nets out (the copy never saw
//     it), a delete followed by a reinsert is a put. The pause writers
//     can observe is proportional to this delta, not to the shard size.
//
// Only then is the new routing table published, and only after that
// are the migration's pins released: a release that moves the pin
// horizon sweeps the source (retired nodes, value histories, journal
// truncation), and inside the seal window writers spinning on the
// sealed source would wait that sweep out. The pins are ordinary pins —
// while one is live, overwrites in the source keep their superseded
// value and deletes keep their node, as under an open snapshot — and
// the pin gauges and trace hooks count them.
//
// Linearizability across the swap: writes always land in the
// authoritative shard (the source until seal, the destinations after
// the swap; sealed sources refuse writes). A read that routed through
// the old table after the swap sees the source's frozen contents —
// which equal the destinations' contents at publication — so it
// linearizes immediately before the swap, which is inside the read's
// invocation window because it loaded the table before the swap.
// Cross-shard scans hold one table and inherit the ordered queries'
// weak-consistency window. Every table's buckets tile the universe in
// key order, and each bucket's trie rejects keys outside its range, so
// a scan concatenates the buckets of whichever table it holds: a bucket
// retired mid-scan still yields exactly its own range, frozen, and the
// replacement buckets on the newer table are never visited alongside it.

// MoveStats reports one Split or Merge.
type MoveStats struct {
	// Moved counts keys copied by the warm pass; Dirty counts keys the
	// sealed resync replayed: keys whose presence or value differs
	// between the source's pinned views at the copy and at the seal.
	Moved, Dirty int
	// Shards is the shard count after the operation.
	Shards int
	// Duration is the operation's wall time, warm copy included.
	Duration time.Duration
	// WarmCopy and Resync split Duration by phase: WarmCopy is the
	// source-live copy pass (phase 1), Resync the seal + journal
	// replay (phases 2-3) — the only window writers can observe.
	WarmCopy, Resync time.Duration
}

// traceMigration emits one migration-phase event when a trace sink is
// configured.
func (t *Trie[V]) traceMigration(split bool, phase string, b *bucket[V], keys int, d time.Duration) {
	if tr := t.cfg.Trace; tr != nil && tr.Migration != nil {
		tr.Migration(split, phase, b.lo, b.bits, keys, int64(d))
	}
}

// Split divides the shard owning key into two children, each owning
// half of its range, migrating resident keys online. It fails if the
// shard is already at the configured depth limit. Concurrent point
// operations stay linearizable throughout; at most one Split or Merge
// runs at a time.
func (t *Trie[V]) Split(key uint64) (MoveStats, error) {
	t.reshardMu.Lock()
	defer t.reshardMu.Unlock()
	if !t.inUniverse(key) {
		return MoveStats{}, fmt.Errorf("shard: Split key %#x outside the universe", key)
	}
	tab := t.tab.Load()
	b := tab.route(key)
	if b.bits >= t.maxBits {
		return MoveStats{}, fmt.Errorf("shard: shard [%#x,%#x] already at the split depth limit (%d bits)", b.lo, b.hi, t.maxBits)
	}
	mid := b.lo + uint64(1)<<(t.width-b.bits-1) // a child's universe is >= 1 bit wide
	kids := []*bucket[V]{t.newBucket(b.lo, b.bits+1), t.newBucket(mid, b.bits+1)}
	return t.migrate(true, tab, []*bucket[V]{b}, kids), nil
}

// Merge rejoins the shard owning key with its buddy — the sibling shard
// covering the other half of their common parent range — migrating both
// shards' keys into a fresh parent shard online. It fails on a
// single-shard trie and when the buddy has been split finer (merge the
// buddy's children first). Concurrent point operations stay
// linearizable throughout.
func (t *Trie[V]) Merge(key uint64) (MoveStats, error) {
	t.reshardMu.Lock()
	defer t.reshardMu.Unlock()
	if !t.inUniverse(key) {
		return MoveStats{}, fmt.Errorf("shard: Merge key %#x outside the universe", key)
	}
	tab := t.tab.Load()
	b := tab.route(key)
	if b.bits == 0 {
		return MoveStats{}, fmt.Errorf("shard: cannot merge the only shard")
	}
	bd := tab.route(b.lo ^ (uint64(1) << (t.width - b.bits)))
	if bd.bits != b.bits {
		return MoveStats{}, fmt.Errorf("shard: buddy of [%#x,%#x] is split finer; merge its children first", b.lo, b.hi)
	}
	if bd.lo < b.lo {
		b, bd = bd, b
	}
	return t.migrate(false, tab, []*bucket[V]{b, bd}, []*bucket[V]{t.newBucket(b.lo, b.bits-1)}), nil
}

// migrate drains srcs — adjacent buckets of tab, ascending — into dsts,
// fresh buckets tiling the same range in ascending order, then
// publishes tab with dsts in their place (see the file comment). Every
// source is pinned and copied while live before any is sealed, so
// writers to one source of a Merge spin only from that source's seal to
// publication: a window proportional to the two journal deltas, never
// to the other source's size.
func (t *Trie[V]) migrate(split bool, tab *table[V], srcs, dsts []*bucket[V]) MoveStats {
	start := time.Now()
	dest := func(k uint64) *core.SkipTrie[V] {
		i := 0
		for k > dsts[i].hi {
			i++
		}
		return dsts[i].trie
	}
	var ms MoveStats
	warmPins := make([]uint64, len(srcs))
	for i, b := range srcs {
		t0 := time.Now()
		warmPins[i] = b.trie.PinEpoch()
		it := b.trie.MakeSnapIter(warmPins[i], nil)
		n := 0
		for ok := it.First(); ok; ok = it.Next() {
			dest(it.Key()).Store(it.Key(), it.Value(), nil)
			n++
		}
		d := time.Since(t0)
		t.traceMigration(split, "warm-copy", b, n, d)
		ms.Moved += n
		ms.WarmCopy += d
	}
	sealPins := make([]uint64, len(srcs))
	for i, b := range srcs {
		t0 := time.Now()
		b.mu.Lock()
		b.sealed = true
		b.mu.Unlock()
		sealPins[i] = b.trie.PinEpoch()
		n := 0
		b.trie.DiffEpochs(warmPins[i], sealPins[i], nil, func(k uint64, v V, put bool) bool {
			if put {
				dest(k).Store(k, v, nil)
			} else {
				dest(k).Delete(k, nil)
			}
			n++
			return true
		})
		d := time.Since(t0)
		t.traceMigration(split, "seal-resync", b, n, d)
		ms.Dirty += n
		ms.Resync += d
	}

	bs := make([]*bucket[V], 0, len(tab.buckets)-len(srcs)+len(dsts))
	for _, ob := range tab.buckets {
		switch {
		case ob == srcs[0]:
			bs = append(bs, dsts...)
		case !slices.Contains(srcs, ob):
			bs = append(bs, ob)
		}
	}
	t.tab.Store(buildTable(t.width, bs, tab.gen+1))
	for i, b := range srcs {
		b.trie.ReleaseEpoch(warmPins[i])
		b.trie.ReleaseEpoch(sealPins[i])
	}
	ms.Shards = len(bs)
	ms.Duration = time.Since(start)
	return ms
}
