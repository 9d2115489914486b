// Package shard partitions the SkipTrie's key universe by key prefix
// into independent core.SkipTrie sub-universes. Point operations route
// to their home shard in O(1) through an atomically-published immutable
// routing trie (a prefix→shard directory, see table.go); ordered
// operations (predecessor, successor, min/max) answer from the home
// shard and stitch across shard boundaries, and iteration concatenates
// the shards in key order (see Iter).
//
// Each shard is a full SkipTrie over an aligned sub-universe
// [lo, lo+2^(W-b)) configured via core.Config.Base, so every shard
// keeps the paper's O(log log u) depth for its own, smaller u —
// sharding never deepens a search, it only narrows the universe each
// search runs in. What sharding buys is independence: updates in
// different shards touch disjoint skiplists, x-fast tries and hash
// tables, so the contention term c of Theorem 4.3 (and all cache
// traffic) is divided across shards for any workload that spreads over
// the key space.
//
// # Dynamic resharding
//
// The partition is not fixed: Split divides a shard into two
// half-universe children and Merge rejoins two buddy siblings — online,
// while readers and writers keep running (see migrate.go for the
// protocol and its linearizability argument). This is what defends the
// structure against hot-range workloads (a Zipf or time-ordered key
// stream parked in one prefix region) that defeat any static prefix
// partition; internal/reshard drives Split/Merge automatically from
// observed load.
//
// # Consistency
//
// Point operations (Insert, Store, LoadOrStore, Delete, Contains,
// Find) touch exactly one shard and stay linearizable across reshards:
// reads are lock-free (a read routed to a retired shard observes its
// frozen final contents and linearizes before the table swap); writes
// hold the home shard's write latch in shared mode, which never blocks
// except for the two pointer-flip instants of a reshard draining that
// exact shard. An ordered query answered entirely by its home shard is
// likewise linearizable. A query that stitches across shard boundaries
// is not one atomic action: it observes each probed shard at a
// different instant, so under concurrent cross-shard movement it may
// return a key farther from x than the true extremum, or not-found —
// the same weakly-consistent contract Range already has. Every key it
// does return was present, with the returned value, at the moment its
// shard was probed.
package shard

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"skiptrie/internal/core"
	"skiptrie/internal/skiplist"
	"skiptrie/internal/stats"
)

// MaxShardBits caps the shard count (and split depth) at 2^MaxShardBits.
const MaxShardBits = 12

// Config configures a sharded trie.
type Config struct {
	// Width is the full universe width W = log u, in [1, 64]. The
	// default (0) means 64.
	Width uint8
	// Shards is the desired initial shard count. It is rounded up to a
	// power of two and clamped so each shard keeps a universe of at
	// least one bit (and to at most 2^MaxShardBits). The default (0)
	// selects GOMAXPROCS rounded up to a power of two.
	Shards int
	// MaxShards caps how far Split may subdivide the universe. It is
	// rounded and clamped like Shards and floored at the initial shard
	// count. The default (0) allows the full 2^MaxShardBits.
	MaxShards int
	// Repair and Seed configure every shard as in core.Config; the
	// i'th shard ever created is seeded Seed+i so shard shapes are
	// reproducible yet statistically independent.
	Repair skiplist.RepairMode
	Seed   uint64
	// Trace, when non-nil, receives lifecycle events from every shard
	// (pin/sweep/journal, via core.Config) plus this package's
	// per-phase migration events.
	Trace *stats.Trace
}

// Trie is a sharded SkipTrie over [0, 2^Width): independent
// core.SkipTrie shards, each owning an aligned power-of-two key range,
// behind an atomically-published routing table. All operations have the
// same semantics (and the same lock-freedom caveats) as the
// corresponding core.SkipTrie operations; Split and Merge change the
// partition online.
type Trie[V any] struct {
	tab      atomic.Pointer[table[V]]
	width    uint8
	initBits uint8 // log2 of the initial shard count
	maxBits  uint8 // split depth limit
	cfg      Config
	seedCtr  atomic.Uint64

	// reshardMu serializes Split and Merge (one migration at a time);
	// it is never taken by reads or writes.
	reshardMu sync.Mutex

	// Cumulative reshard counters, for diagnostics and metrics.
	splits, merges, movedKeys atomic.Uint64
	migrateNanos              atomic.Int64
}

// resolveShards applies Config.Shards's default, rounding and clamps,
// returning the shard count as a power of two 2^s with s <= width-1.
func resolveShards(n int, width uint8) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > 1 {
		n = 1 << bits.Len(uint(n-1)) // round up to a power of two
	}
	if n > 1<<MaxShardBits {
		n = 1 << MaxShardBits
	}
	// Each shard must keep at least a 1-bit universe: s <= width-1.
	if s := bits.TrailingZeros(uint(n)); s > int(width)-1 {
		n = 1 << (width - 1)
	}
	return n
}

// New returns an empty sharded trie.
func New[V any](cfg Config) *Trie[V] {
	w := cfg.Width
	if w == 0 || w > 64 {
		w = 64
	}
	n := resolveShards(cfg.Shards, w)
	s := uint8(bits.TrailingZeros(uint(n)))
	maxN := 1 << MaxShardBits
	if cfg.MaxShards > 0 {
		maxN = resolveShards(cfg.MaxShards, w)
	}
	if maxN < n {
		maxN = n
	}
	maxBits := uint8(bits.TrailingZeros(uint(maxN)))
	if maxBits > w-1 {
		maxBits = w - 1
	}
	t := &Trie[V]{width: w, initBits: s, maxBits: maxBits, cfg: cfg}
	bs := make([]*bucket[V], n)
	for i := range bs {
		bs[i] = t.newBucket(uint64(i)<<(w-s), s)
	}
	t.tab.Store(buildTable(w, bs, 0))
	return t
}

// Shards returns the current shard count.
func (t *Trie[V]) Shards() int { return len(t.tab.Load().buckets) }

// Width returns the full universe width W = log u.
func (t *Trie[V]) Width() uint8 { return t.width }

// SubWidth returns the initial per-shard universe width,
// W - log2(initial shards). After a Split or Merge individual shards
// own narrower or wider ranges; see Buckets for the live partition.
func (t *Trie[V]) SubWidth() uint8 { return t.width - t.initBits }

// MaxBits returns the split depth limit: Split refuses to subdivide a
// shard that already has MaxBits prefix bits.
func (t *Trie[V]) MaxBits() uint8 { return t.maxBits }

// MaxKey returns the largest key of the universe, 2^Width - 1.
func (t *Trie[V]) MaxKey() uint64 { return ^uint64(0) >> (64 - t.width) }

// inUniverse reports whether key fits the full universe.
func (t *Trie[V]) inUniverse(key uint64) bool {
	return t.width == 64 || key < 1<<t.width
}

// home returns the index of the bucket owning key in the current
// table's ordered bucket list. Only valid for in-universe keys.
func (t *Trie[V]) home(key uint64) int {
	_, i := t.tab.Load().routeIdx(key)
	return i
}

// Shard returns the shard trie owning key, for tests and diagnostics.
// The key must be inside the universe; out-of-universe keys have no
// owning shard and panic.
func (t *Trie[V]) Shard(key uint64) *core.SkipTrie[V] {
	if !t.inUniverse(key) {
		panic("shard: Shard called with an out-of-universe key")
	}
	return t.tab.Load().route(key).trie
}

// --- point operations: O(1) routing by prefix ---

// acquire routes key to its bucket and takes the bucket's write latch
// in shared mode, retrying through fresh tables while the bucket is
// sealed (a reshard is publishing its replacement). On return the
// bucket is writable — active or migrating — and stays so until the
// caller releases.
func (t *Trie[V]) acquire(key uint64) *bucket[V] {
	for {
		b := t.tab.Load().route(key)
		b.mu.RLock()
		if b.state != bucketSealed {
			return b
		}
		b.mu.RUnlock()
		// The replacement table is being published; yield and re-route.
		runtime.Gosched()
	}
}

// release files key in the bucket's dirty set when a migration is
// draining it (so the sealed resync replays this write), then drops the
// latch and counts the op.
func (b *bucket[V]) release(key uint64) {
	if b.state == bucketMigrating {
		b.mig.mark(key)
	}
	b.mu.RUnlock()
	b.ops.Add(1)
}

// Insert adds key with its value, reporting whether the key was absent.
func (t *Trie[V]) Insert(key uint64, val V, c *stats.Op) bool {
	if !t.inUniverse(key) {
		return false
	}
	b := t.acquire(key)
	ok := b.trie.Insert(key, val, c)
	b.release(key)
	return ok
}

// Add is Insert with the zero value of V: the set-form operation.
func (t *Trie[V]) Add(key uint64, c *stats.Op) bool {
	var zero V
	return t.Insert(key, zero, c)
}

// Store sets the value for key, inserting it if absent; it reports
// whether the key was inserted.
func (t *Trie[V]) Store(key uint64, val V, c *stats.Op) bool {
	if !t.inUniverse(key) {
		return false
	}
	b := t.acquire(key)
	ok := b.trie.Store(key, val, c)
	b.release(key)
	return ok
}

// storeBatchChunk bounds how many keys StoreBatch applies per latch
// hold, so a long run into one shard cannot starve a reshard draining
// that shard (the latch is re-acquired — and the route re-resolved —
// between chunks, giving a pending Split or Merge its flip window).
const storeBatchChunk = 512

// StoreBatch stores a non-decreasing run of key/value pairs, routing
// each maximal in-shard sub-run to its home shard in one latch
// acquisition and letting the shard amortize the descents
// (core.StoreRun). It returns the number of keys inserted rather than
// overwritten. Duplicate keys resolve to the later pair; keys outside
// the universe — which sort after every in-universe key — are dropped.
//
// Each key commits individually under its home shard's write latch,
// with exactly Store's per-key linearizability; there is no batch
// atomicity, and a concurrent reader may observe any prefix-consistent
// subset of the batch.
func (t *Trie[V]) StoreBatch(keys []uint64, vals []V, c *stats.Op) int {
	inserted := 0
	for i := 0; i < len(keys); {
		if !t.inUniverse(keys[i]) {
			break // sorted: every remaining key is out of universe too
		}
		b := t.acquire(keys[i])
		// The sub-run this shard owns, capped at one chunk.
		end := i + 1
		for end < len(keys) && end-i < storeBatchChunk && keys[end] <= b.hi {
			end++
		}
		inserted += b.trie.StoreRun(keys[i:end], vals[i:end], c)
		// Inlined release(key) for the whole chunk: dirty-mark every
		// key while a migration is draining this shard (the sealed
		// resync replays them), then drop the latch and count the ops.
		if b.state == bucketMigrating {
			for _, k := range keys[i:end] {
				b.mig.mark(k)
			}
		}
		b.mu.RUnlock()
		b.ops.Add(uint64(end - i))
		i = end
	}
	return inserted
}

// LoadOrStore returns the existing value for key if present; otherwise
// it stores val. loaded reports whether the value was loaded.
func (t *Trie[V]) LoadOrStore(key uint64, val V, c *stats.Op) (actual V, loaded bool) {
	if !t.inUniverse(key) {
		return val, false
	}
	b := t.acquire(key)
	actual, loaded = b.trie.LoadOrStore(key, val, c)
	b.release(key)
	return actual, loaded
}

// Delete removes key, reporting whether this call removed it.
func (t *Trie[V]) Delete(key uint64, c *stats.Op) bool {
	if !t.inUniverse(key) {
		return false
	}
	b := t.acquire(key)
	ok := b.trie.Delete(key, c)
	b.release(key)
	return ok
}

// Contains reports whether key is present. Reads take no latch: a
// migrating home shard is still authoritative, and a sealed one holds
// its frozen final contents, which linearize before the table swap
// that retired it.
func (t *Trie[V]) Contains(key uint64, c *stats.Op) bool {
	if !t.inUniverse(key) {
		return false
	}
	return t.tab.Load().route(key).trie.Contains(key, c)
}

// Find returns the value associated with key.
func (t *Trie[V]) Find(key uint64, c *stats.Op) (V, bool) {
	if !t.inUniverse(key) {
		var zero V
		return zero, false
	}
	return t.tab.Load().route(key).trie.Find(key, c)
}

// --- ordered operations: home shard first, then boundary stitching ---

// predStitch answers a (strict) predecessor query: ask x's home shard
// first, then walk lower shards probing their maxima. When x is above
// the universe every shard's maximum qualifies, so the walk starts at
// the last shard with no home query. The whole query runs against one
// table snapshot.
func (t *Trie[V]) predStitch(x uint64, strict bool, c *stats.Op) (uint64, V, bool) {
	tab := t.tab.Load()
	h := len(tab.buckets) - 1
	if t.inUniverse(x) {
		var home *bucket[V]
		home, h = tab.routeIdx(x)
		home.ops.Add(1)
		var k uint64
		var v V
		var ok bool
		if strict {
			k, v, ok = home.trie.StrictPredecessor(x, c)
		} else {
			k, v, ok = home.trie.Predecessor(x, c)
		}
		if ok {
			return k, v, ok
		}
		h--
	}
	for ; h >= 0; h-- {
		if k, v, ok := tab.buckets[h].trie.Max(c); ok {
			return k, v, ok
		}
	}
	var zero V
	return 0, zero, false
}

// Predecessor returns the largest key <= x and its value. The home
// shard answers when it holds any key <= x; otherwise the answer is the
// maximum of the nearest lower non-empty shard (weakly consistent when
// the answer crosses shards — see the package comment).
func (t *Trie[V]) Predecessor(x uint64, c *stats.Op) (uint64, V, bool) {
	return t.predStitch(x, false, c)
}

// StrictPredecessor returns the largest key < x and its value.
func (t *Trie[V]) StrictPredecessor(x uint64, c *stats.Op) (uint64, V, bool) {
	return t.predStitch(x, true, c)
}

// Successor returns the smallest key >= x and its value. The home shard
// answers when it holds any key >= x; otherwise the answer is the
// minimum of the nearest higher non-empty shard (weakly consistent when
// the answer crosses shards — see the package comment).
func (t *Trie[V]) Successor(x uint64, c *stats.Op) (uint64, V, bool) {
	var zero V
	if !t.inUniverse(x) {
		return 0, zero, false
	}
	tab := t.tab.Load()
	home, h := tab.routeIdx(x)
	home.ops.Add(1)
	if k, v, ok := home.trie.Successor(x, c); ok {
		return k, v, ok
	}
	for h++; h < len(tab.buckets); h++ {
		if k, v, ok := tab.buckets[h].trie.Min(c); ok {
			return k, v, ok
		}
	}
	return 0, zero, false
}

// StrictSuccessor returns the smallest key > x and its value.
func (t *Trie[V]) StrictSuccessor(x uint64, c *stats.Op) (uint64, V, bool) {
	if x >= t.MaxKey() {
		var zero V
		return 0, zero, false
	}
	return t.Successor(x+1, c)
}

// Min returns the smallest key and its value.
func (t *Trie[V]) Min(c *stats.Op) (uint64, V, bool) {
	for _, b := range t.tab.Load().buckets {
		if k, v, ok := b.trie.Min(c); ok {
			return k, v, ok
		}
	}
	var zero V
	return 0, zero, false
}

// Max returns the largest key and its value.
func (t *Trie[V]) Max(c *stats.Op) (uint64, V, bool) {
	tab := t.tab.Load()
	for i := len(tab.buckets) - 1; i >= 0; i-- {
		if k, v, ok := tab.buckets[i].trie.Max(c); ok {
			return k, v, ok
		}
	}
	var zero V
	return 0, zero, false
}

// Range calls fn for keys >= from in ascending order until fn returns
// false, walking the shards in key order with the concatenating cursor
// (see Iter). Iteration is weakly consistent, per shard, exactly as in
// core.SkipTrie.Range.
func (t *Trie[V]) Range(from uint64, fn func(key uint64, val V) bool, c *stats.Op) {
	it := t.MakeIter(c)
	for ok := it.Seek(from); ok; ok = it.Next() {
		if !fn(it.Key(), it.Value()) {
			return
		}
	}
}

// Descend calls fn for keys <= from in descending order until fn
// returns false, walking the shards in reverse key order.
func (t *Trie[V]) Descend(from uint64, fn func(key uint64, val V) bool, c *stats.Op) {
	it := t.MakeIter(c)
	for ok := it.SeekLE(from); ok; ok = it.Prev() {
		if !fn(it.Key(), it.Value()) {
			return
		}
	}
}

// Len returns the number of keys across all shards (approximate under
// concurrent mutation).
func (t *Trie[V]) Len() int {
	n := 0
	for _, b := range t.tab.Load().buckets {
		n += b.trie.Len()
	}
	return n
}

// ShardLens returns each shard's key count in key order, for balance
// diagnostics.
func (t *Trie[V]) ShardLens() []int {
	bs := t.tab.Load().buckets
	out := make([]int, len(bs))
	for i, b := range bs {
		out[i] = b.trie.Len()
	}
	return out
}

// Info describes one shard of the live partition.
type Info struct {
	Lo, Hi uint64 // owned key range, inclusive
	Bits   uint8  // prefix length (range size is 2^(Width-Bits))
	Len    int    // resident keys
	Ops    uint64 // cumulative write + ordered ops routed here
}

// Buckets returns the live partition in key order with each shard's
// load counters — the balancer's sampling surface.
func (t *Trie[V]) Buckets() []Info {
	bs := t.tab.Load().buckets
	out := make([]Info, len(bs))
	for i, b := range bs {
		out[i] = Info{Lo: b.lo, Hi: b.hi, Bits: b.bits, Len: b.trie.Len(), Ops: b.ops.Load()}
	}
	return out
}

// ReshardStats reports cumulative reshard work: splits, merges, keys
// moved by migrations, and total migration wall time.
func (t *Trie[V]) ReshardStats() (splits, merges, moved uint64, dur time.Duration) {
	return t.splits.Load(), t.merges.Load(), t.movedKeys.Load(),
		time.Duration(t.migrateNanos.Load())
}

// PinStats aggregates the epoch-retention gauges over the current
// partition: summed live pins, retained nodes and journal segments, and
// the maximum oldest-pin age across shards. Shards retired by a
// migration while still pinned by an old snapshot are not counted —
// the gauges describe the live partition.
func (t *Trie[V]) PinStats() (live, retained, segments int, oldest time.Duration) {
	for _, b := range t.tab.Load().buckets {
		l, r, s, o := b.trie.PinStats()
		live += l
		retained += r
		segments += s
		if o > oldest {
			oldest = o
		}
	}
	return live, retained, segments, oldest
}

// Space returns aggregate space statistics across shards.
func (t *Trie[V]) Space() core.SpaceStats {
	var sp core.SpaceStats
	for _, b := range t.tab.Load().buckets {
		ss := b.trie.Space()
		sp.Keys += ss.Keys
		sp.TowerNodes += ss.TowerNodes
		sp.TriePrefix += ss.TriePrefix
		sp.HashBuckets += ss.HashBuckets
	}
	return sp
}

// Validate checks every shard's invariants plus the partition
// invariants: the buckets tile the universe exactly, the directory
// routes every slot to its bucket, every bucket in the live table is
// active, and every key a shard holds lies inside that shard's range.
// Only call at quiescence.
func (t *Trie[V]) Validate() error {
	tab := t.tab.Load()
	want := uint64(0)
	for i, b := range tab.buckets {
		if b.lo != want {
			return fmt.Errorf("shard: bucket %d starts at %#x, want %#x (partition does not tile)", i, b.lo, want)
		}
		if b.hi != b.lo+(^uint64(0)>>(64-(t.width-b.bits))) {
			return fmt.Errorf("shard: bucket %d range [%#x,%#x] inconsistent with bits %d", i, b.lo, b.hi, b.bits)
		}
		want = b.hi + 1 // wraps to 0 on the last bucket of a 64-bit universe
		b.mu.RLock()
		st := b.state
		b.mu.RUnlock()
		if st != bucketActive {
			return fmt.Errorf("shard: bucket %d [%#x,%#x] in live table has state %d", i, b.lo, b.hi, st)
		}
		if err := b.trie.Validate(); err != nil {
			return err
		}
		var stray error
		lo, hi := b.lo, b.hi
		b.trie.Range(0, func(k uint64, _ V) bool {
			if k < lo || k > hi {
				stray = fmt.Errorf("shard: key %#x found in bucket [%#x,%#x]", k, lo, hi)
				return false
			}
			return true
		}, nil)
		if stray != nil {
			return stray
		}
	}
	if t.width < 64 && want != 1<<t.width {
		return fmt.Errorf("shard: partition covers [0,%#x), want [0,%#x)", want, uint64(1)<<t.width)
	}
	if t.width == 64 && want != 0 {
		return fmt.Errorf("shard: partition covers [0,%#x), want the full 64-bit universe", want)
	}
	for s, b := range tab.slots {
		lo := uint64(s) << tab.shift
		if lo < b.lo || lo > b.hi {
			return fmt.Errorf("shard: directory slot %d routes to bucket [%#x,%#x]", s, b.lo, b.hi)
		}
		if tab.buckets[tab.bidx[s]] != b {
			return fmt.Errorf("shard: directory slot %d index disagrees with its bucket", s)
		}
	}
	return nil
}
