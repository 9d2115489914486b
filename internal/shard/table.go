package shard

import (
	"sync"
	"sync/atomic"

	"skiptrie/internal/core"
)

// Bucket states. A bucket starts active, becomes migrating while a
// split or merge warm-copies its keys elsewhere (writes still land here
// and are filed in the migration's dirty set), and ends sealed once the
// final handoff begins. A sealed bucket never changes again: writers
// that route to it re-load the table and retry, readers may still
// answer from its frozen contents (see the consistency argument in
// migrate.go).
const (
	bucketActive int32 = iota
	bucketMigrating
	bucketSealed
)

// bucket is one shard: a core.SkipTrie over the aligned key range
// [lo, hi], plus the per-shard coordination state resharding needs. The
// trie pointer is fixed for the bucket's lifetime — a split or merge
// never mutates a bucket's range, it retires the bucket and publishes
// new ones — so a cursor holding a bucket keeps a stable (eventually
// frozen) structure to read.
type bucket[V any] struct {
	trie *core.SkipTrie[V]
	lo   uint64 // smallest owned key; aligned to the prefix
	hi   uint64 // largest owned key, inclusive (lo + 2^width - 1)
	bits uint8  // prefix length: the trie's universe width is W - bits

	// ops counts the write and ordered operations routed here since the
	// bucket was created — the balancer's load signal. Reads
	// (Find/Contains) are not counted: they are lock-free and scale
	// across cores, so split pressure comes from write contention and
	// residency, which ops and Len capture.
	ops atomic.Uint64

	// mu orders writes against reshard state transitions: every write
	// op holds RLock across its state check + trie operation + dirty
	// mark, and a reshard holds Lock only for the two instants that flip
	// state. state and mig are guarded by mu.
	mu    sync.RWMutex
	state int32
	mig   *migration
}

// migration is the dirty set a draining bucket's concurrent writers
// file their keys into: the final sealed resync replays exactly these
// keys against the bucket's frozen contents, so the handoff pause is
// proportional to the churn during the warm copy, not the bucket size.
type migration struct {
	mu    sync.Mutex
	dirty map[uint64]struct{}
}

func (m *migration) mark(key uint64) {
	m.mu.Lock()
	m.dirty[key] = struct{}{}
	m.mu.Unlock()
}

// table is one immutable snapshot of the routing trie: the full bucket
// list in key order plus a flattened directory for O(1) point routing.
// The directory is the prefix trie collapsed to its maximum depth
// (extendible-hashing style): a bucket with prefix length b occupies
// 2^(dirBits-b) consecutive slots, so routing is a shift and one load.
// Tables are never mutated after publication; resharding builds a new
// table and swaps the Trie's atomic pointer, which is what lets point
// ops route lock-free and lets in-flight scans keep a coherent shard
// set.
type table[V any] struct {
	gen     uint64       // publication generation, for iterator re-seeding
	dirBits uint8        // directory depth: max bucket prefix length
	shift   uint8        // W - dirBits: key -> slot index shift
	slots   []*bucket[V] // 2^dirBits entries
	bidx    []int32      // slot -> index into buckets, for ordered stitching
	buckets []*bucket[V] // unique buckets, ascending by lo
}

// route returns the bucket owning key. Only valid for in-universe keys.
func (tb *table[V]) route(key uint64) *bucket[V] {
	return tb.slots[key>>tb.shift]
}

// routeIdx returns the bucket owning key and its position in the
// ordered bucket list.
func (tb *table[V]) routeIdx(key uint64) (*bucket[V], int) {
	i := key >> tb.shift
	return tb.slots[i], int(tb.bidx[i])
}

// buildTable flattens a bucket list (ascending by lo, tiling the
// universe) into a routing snapshot.
func buildTable[V any](width uint8, bs []*bucket[V], gen uint64) *table[V] {
	dirBits := uint8(0)
	for _, b := range bs {
		if b.bits > dirBits {
			dirBits = b.bits
		}
	}
	shift := width - dirBits
	tb := &table[V]{
		gen:     gen,
		dirBits: dirBits,
		shift:   shift,
		slots:   make([]*bucket[V], 1<<dirBits),
		bidx:    make([]int32, 1<<dirBits),
		buckets: bs,
	}
	for i, b := range bs {
		lo := b.lo >> shift
		n := uint64(1) << (dirBits - b.bits)
		for j := uint64(0); j < n; j++ {
			tb.slots[lo+j] = b
			tb.bidx[lo+j] = int32(i)
		}
	}
	return tb
}

// newBucket creates an active bucket over [lo, lo+2^(W-bits)) with a
// fresh sub-universe trie. Seeds are drawn from a per-trie counter so
// every bucket ever created gets a distinct, reproducible seed.
func (t *Trie[V]) newBucket(lo uint64, bits uint8) *bucket[V] {
	w := t.width - bits
	return &bucket[V]{
		trie: core.New[V](core.Config{
			Width:  w,
			Base:   lo,
			Repair: t.cfg.Repair,
			Seed:   t.cfg.Seed + t.seedCtr.Add(1) - 1,
			Trace:  t.cfg.Trace,
		}),
		lo:   lo,
		hi:   lo + (^uint64(0) >> (64 - w)),
		bits: bits,
	}
}
