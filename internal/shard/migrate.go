package shard

import (
	"fmt"
	"time"

	"skiptrie/internal/core"
)

// This file implements online shard migration: Split divides one shard
// into two half-universe children, Merge rejoins two buddy siblings.
// Both run the same three-phase drain against the source shard(s):
//
//  1. Warm copy (source live). The source is flipped to migrating under
//     its write latch; from that instant every write to it also files
//     its key in the migration's dirty set (writers hold the latch
//     shared across state-check + op + mark, so no write is ever
//     missed). A cursor then walks the source and copies every key into
//     its destination trie. The cursor's weak consistency is exactly
//     enough: keys stable through the pass are guaranteed copied, and
//     any key that churned is in the dirty set.
//
//  2. Seal. The source is flipped to sealed under its write latch —
//     the latch acquisition is the linearization barrier: once it is
//     taken, no write is in flight and all dirty marks are visible.
//     From here the source is frozen forever. Writers that still route
//     to it (via the soon-to-be-replaced table) spin re-routing until
//     the new table lands; readers may keep answering from it.
//
//  3. Delta resync (source frozen). Each dirty key is replayed against
//     the source's frozen truth: present → re-store its final value in
//     the destination (fixing values the warm copy caught mid-update),
//     absent → delete from the destination (fixing ghosts the warm
//     copy saw before a delete). The pause writers can observe is
//     proportional to this delta, not to the shard size.
//
// Only then is the new routing table published and the source retired.
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
	// Moved counts keys copied by the warm pass; Dirty counts keys
	// replayed by the sealed delta resync (writes that raced the copy).
	Moved, Dirty int
	// Shards is the shard count after the operation.
	Shards int
	// Duration is the operation's wall time, warm copy included.
	Duration time.Duration
	// WarmCopy and Resync split Duration by phase: WarmCopy is the
	// source-live copy pass (phase 1), Resync the seal + dirty-delta
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
	start := time.Now()
	if !t.inUniverse(key) {
		return MoveStats{}, fmt.Errorf("shard: Split key %#x outside the universe", key)
	}
	tab := t.tab.Load()
	b := tab.route(key)
	if b.bits >= t.maxBits {
		return MoveStats{}, fmt.Errorf("shard: shard [%#x,%#x] already at the split depth limit (%d bits)", b.lo, b.hi, t.maxBits)
	}
	cw := t.width - b.bits - 1 // child universe width, >= 1
	mid := b.lo + (uint64(1) << cw)
	left := t.newBucket(b.lo, b.bits+1)
	right := t.newBucket(mid, b.bits+1)
	dest := func(k uint64) *core.SkipTrie[V] {
		if k < mid {
			return left.trie
		}
		return right.trie
	}
	warmStart := time.Now()
	mig, moved := warmCopy(b, dest)
	warm := time.Since(warmStart)
	t.traceMigration(true, "warm-copy", b, moved, warm)
	resyncStart := time.Now()
	dirty := sealAndResync(b, mig, dest)
	resync := time.Since(resyncStart)
	t.traceMigration(true, "seal-resync", b, dirty, resync)

	bs := make([]*bucket[V], 0, len(tab.buckets)+1)
	for _, ob := range tab.buckets {
		if ob == b {
			bs = append(bs, left, right)
		} else {
			bs = append(bs, ob)
		}
	}
	t.tab.Store(buildTable(t.width, bs, tab.gen+1))

	d := time.Since(start)
	t.splits.Add(1)
	t.movedKeys.Add(uint64(moved + dirty))
	t.migrateNanos.Add(int64(d))
	return MoveStats{Moved: moved, Dirty: dirty, Shards: len(bs), Duration: d,
		WarmCopy: warm, Resync: resync}, nil
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
	start := time.Now()
	if !t.inUniverse(key) {
		return MoveStats{}, fmt.Errorf("shard: Merge key %#x outside the universe", key)
	}
	tab := t.tab.Load()
	b := tab.route(key)
	if b.bits == 0 {
		return MoveStats{}, fmt.Errorf("shard: cannot merge the only shard")
	}
	buddyLo := b.lo ^ (uint64(1) << (t.width - b.bits))
	bd := tab.route(buddyLo)
	if bd.bits != b.bits {
		return MoveStats{}, fmt.Errorf("shard: buddy of [%#x,%#x] is split finer; merge its children first", b.lo, b.hi)
	}
	lower, upper := b, bd
	if upper.lo < lower.lo {
		lower, upper = upper, lower
	}
	parent := t.newBucket(lower.lo, b.bits-1)
	// Both sources warm-copy while fully live; only then is either
	// sealed. Writers to either half therefore spin only from their
	// shard's seal to publication — a window proportional to the two
	// dirty deltas, the same O(churn) bound Split gives, never to the
	// other shard's size.
	dest := func(uint64) *core.SkipTrie[V] { return parent.trie }
	w1s := time.Now()
	mig1, m1 := warmCopy(lower, dest)
	w1 := time.Since(w1s)
	t.traceMigration(false, "warm-copy", lower, m1, w1)
	w2s := time.Now()
	mig2, m2 := warmCopy(upper, dest)
	w2 := time.Since(w2s)
	t.traceMigration(false, "warm-copy", upper, m2, w2)
	r1s := time.Now()
	d1 := sealAndResync(lower, mig1, dest)
	r1 := time.Since(r1s)
	t.traceMigration(false, "seal-resync", lower, d1, r1)
	r2s := time.Now()
	d2 := sealAndResync(upper, mig2, dest)
	r2 := time.Since(r2s)
	t.traceMigration(false, "seal-resync", upper, d2, r2)

	bs := make([]*bucket[V], 0, len(tab.buckets)-1)
	for _, ob := range tab.buckets {
		switch ob {
		case lower:
			bs = append(bs, parent)
		case upper:
			// dropped: parent covers it
		default:
			bs = append(bs, ob)
		}
	}
	t.tab.Store(buildTable(t.width, bs, tab.gen+1))

	d := time.Since(start)
	t.merges.Add(1)
	t.movedKeys.Add(uint64(m1 + m2 + d1 + d2))
	t.migrateNanos.Add(int64(d))
	return MoveStats{Moved: m1 + m2, Dirty: d1 + d2, Shards: len(bs), Duration: d,
		WarmCopy: w1 + w2, Resync: r1 + r2}, nil
}

// warmCopy runs phase 1 against a live source: flips it to migrating
// (from which instant concurrent writes file their keys in the returned
// dirty set) and copies every resident key into its destination through
// the cursor.
func warmCopy[V any](b *bucket[V], dest func(uint64) *core.SkipTrie[V]) (mig *migration, moved int) {
	mig = &migration{dirty: make(map[uint64]struct{})}
	b.mu.Lock()
	b.state = bucketMigrating
	b.mig = mig
	b.mu.Unlock()

	it := b.trie.MakeIter(nil)
	for ok := it.First(); ok; ok = it.Next() {
		dest(it.Key()).Store(it.Key(), it.Value(), nil)
		moved++
	}
	return mig, moved
}

// sealAndResync runs phases 2 and 3: seals the source (the Lock/Unlock
// is the barrier after which no writer is in flight and every dirty
// mark is visible) and replays the dirty delta against its frozen
// contents.
func sealAndResync[V any](b *bucket[V], mig *migration, dest func(uint64) *core.SkipTrie[V]) (dirty int) {
	b.mu.Lock()
	b.state = bucketSealed
	b.mu.Unlock()

	mig.mu.Lock()
	defer mig.mu.Unlock()
	for k := range mig.dirty {
		if v, ok := b.trie.Find(k, nil); ok {
			dest(k).Store(k, v, nil)
		} else {
			dest(k).Delete(k, nil)
		}
	}
	return len(mig.dirty)
}
