// Package core composes the SkipTrie from its substrates: the truncated
// lock-free skiplist (internal/skiplist), the concurrent x-fast trie over
// the skiplist's top level (internal/xfast), and the split-ordered hash
// table underneath the trie (internal/splitorder).
//
// The composition follows Section 4.1 of the paper:
//
//	predecessor(x) = skiplistPred(x, xFastTriePred(x))        (Alg 5)
//	insert(x):  trie-pred, skiplist insert, trie walk if top  (Alg 6)
//	delete(x):  trie-pred, skiplist delete, trie walk if top  (Alg 7)
//
// The value type is a compile-time parameter threaded through from the
// skiplist: SkipTrie[V] stores unboxed values of type V inline in level-0
// nodes, with no interface boxing anywhere on the read or write path. The
// set form is SkipTrie[struct{}] (see NewSet), whose value slots are
// zero-width. The x-fast trie only ever sees the skiplist's value-free
// Topology, so it compiles once regardless of V.
//
// Every update is a single-word CAS. Where the paper uses DCSS — top-level
// prev pointers and x-fast pointer swings — the CAS lands unguarded and
// the update is repaired if it has gone stale, which the paper proves
// keeps the structure linearizable and lock-free.
//
// Every operation takes an optional *stats.Op for step accounting; pass
// nil to disable.
package core

import (
	"skiptrie/internal/skiplist"
	"skiptrie/internal/stats"
	"skiptrie/internal/uintbits"
	"skiptrie/internal/xfast"
)

// SkipTrie is a lock-free, linearizable predecessor structure over the
// integer sub-universe [Base, Base+2^Width), mapping keys to unboxed
// values of type V. With the default Base of 0 it covers [0, 2^Width).
//
// Keys are translated to Base-relative offsets at the API boundary, so
// the skiplist and x-fast trie always operate on a dense width-W
// universe regardless of where the sub-universe sits in key space. This
// is what lets a sharded front-end hand each shard a slice of a larger
// universe while every shard keeps the paper's O(log log u) depth for
// its own (smaller) u.
type SkipTrie[V any] struct {
	width uint8
	base  uint64
	list  *skiplist.List[V]
	trie  *xfast.Trie
}

// Config configures a SkipTrie.
type Config struct {
	// Width is the universe width W = log u, in [1, 64]. Keys must be
	// in [Base, Base+2^Width). The default (0) means 64.
	Width uint8
	// Base is the smallest key of the sub-universe. It requires
	// Width < 64 (a 64-bit universe already spans the whole key space)
	// and Base+2^Width must not overflow; New panics otherwise.
	Base uint64
	// Repair selects the top-level prev-pointer discipline (T8 ablation).
	Repair skiplist.RepairMode
	// Seed seeds tower-height randomness; 0 selects a fixed default.
	Seed uint64
	// Trace, when non-nil, receives the skiplist's lifecycle events
	// (pin acquire/release, sweeps, journal truncation).
	Trace *stats.Trace
}

// New returns an empty SkipTrie with value type V.
func New[V any](cfg Config) *SkipTrie[V] {
	w := cfg.Width
	if w == 0 || w > uintbits.MaxWidth {
		w = uintbits.MaxWidth
	}
	if cfg.Base != 0 {
		if w == uintbits.MaxWidth {
			panic("core: Config.Base requires Width < 64")
		}
		if cfg.Base > ^uint64(0)-(1<<w-1) {
			panic("core: Config.Base + 2^Width overflows the key space")
		}
	}
	l := skiplist.New[V](skiplist.Config{
		Levels: uintbits.Levels(w),
		Repair: cfg.Repair,
		Seed:   cfg.Seed,
		Trace:  cfg.Trace,
	})
	return &SkipTrie[V]{
		width: w,
		base:  cfg.Base,
		list:  l,
		trie:  xfast.New(xfast.Config{Width: w, List: l.Topo()}),
	}
}

// NewSet returns an empty SkipTrie in set form: zero-width values, so
// level-0 nodes carry no value storage at all.
func NewSet(cfg Config) *SkipTrie[struct{}] {
	return New[struct{}](cfg)
}

// Width returns the universe width W = log u.
func (s *SkipTrie[V]) Width() uint8 { return s.width }

// Base returns the smallest key of the sub-universe.
func (s *SkipTrie[V]) Base() uint64 { return s.base }

// Levels returns the number of skiplist levels (log log u).
func (s *SkipTrie[V]) Levels() int { return s.list.Levels() }

// Len returns the number of keys (approximate under concurrent mutation).
func (s *SkipTrie[V]) Len() int { return s.list.Len() }

// local translates key to its Base-relative offset, reporting whether
// key lies inside the sub-universe [Base, Base+2^Width). All internal
// structures operate on local offsets; public results are translated
// back with s.base+offset.
func (s *SkipTrie[V]) local(key uint64) (uint64, bool) {
	if key < s.base {
		return 0, false
	}
	k := key - s.base
	return k, s.width == 64 || k < 1<<s.width
}

// localMax returns the largest local offset, 2^Width - 1.
func (s *SkipTrie[V]) localMax() uint64 { return ^uint64(0) >> (64 - s.width) }

// insertWalkIfTop completes an insert whose tower reached the top level:
// the key's prefixes enter the x-fast trie (Alg 6 lines 5-19), or, if a
// delete already stopped the tower and the insert tore its top node down
// itself, the node is disconnected from the trie (xfast.InsertWalk).
func (s *SkipTrie[V]) insertWalkIfTop(res skiplist.InsertResult, c *stats.Op) {
	if res.Top != nil {
		c.TouchTrie()
		s.trie.InsertWalk(res.Top, c)
	}
}

// Insert adds key with its associated value, reporting whether the key was
// absent. An existing key's value is left untouched (use Store to
// overwrite). Inserting a key outside the universe returns false. This is
// the paper's Algorithm 6.
func (s *SkipTrie[V]) Insert(key uint64, val V, c *stats.Op) bool {
	k, ok := s.local(key)
	if !ok {
		return false
	}
	start := s.trie.Pred(k, false, c)
	if start.IsData() && start.Key() == k && !start.Marked() && !start.IsDead() {
		return false // Alg 6 line 1: already present as a top-level node
	}
	res := s.list.Insert(k, val, start, c)
	if !res.Inserted {
		return false
	}
	s.insertWalkIfTop(res, c)
	return true
}

// Add is Insert with the zero value of V: the set-form operation.
func (s *SkipTrie[V]) Add(key uint64, c *stats.Op) bool {
	var zero V
	return s.Insert(key, zero, c)
}

// Store sets the value for key, inserting the key if absent and
// overwriting the existing value in place — without allocation — if
// present. It reports whether the key was inserted. Keys outside the
// universe are rejected (returns false, nothing stored).
func (s *SkipTrie[V]) Store(key uint64, val V, c *stats.Op) bool {
	k, ok := s.local(key)
	if !ok {
		return false
	}
	start := s.trie.Pred(k, false, c)
	if start.IsData() && start.Key() == k && !start.Marked() && !start.IsDead() {
		s.list.SetValue(start, val)
		return false
	}
	res := s.list.Upsert(k, val, start, c)
	if res.Existing != nil {
		return false // Upsert overwrote the existing node's value
	}
	s.insertWalkIfTop(res, c)
	return true
}

// StoreRun stores a non-decreasing run of key/value pairs: for each i,
// Store(keys[i], vals[i]) semantics — insert if absent, overwrite in
// place if present, duplicates resolving to the later pair (last write
// wins). It returns the number of keys inserted (as opposed to
// overwritten). Keys outside the universe are skipped.
//
// Each pair commits individually — per-key linearizability, no batch
// atomicity — but the descents are amortized: the x-fast trie is
// consulted once, for the first key, and every subsequent insert
// descends from that anchor, resuming each level from the previous
// insert's bracket there (skiplist.Hint) when the bracket lies between
// the descent and the key. A batched key therefore never walks more
// than a fresh descent from the anchor, and the keys of an adjacent run
// cost a few hops each. The caller is responsible for keys being
// sorted; an unsorted run stays correct (hints are re-validated by
// every search) but loses the amortization.
func (s *SkipTrie[V]) StoreRun(keys []uint64, vals []V, c *stats.Op) int {
	inserted := 0
	var hint skiplist.Hint
	var start *skiplist.Node
	for i, key := range keys {
		k, ok := s.local(key)
		if !ok {
			continue
		}
		if start == nil {
			// First in-universe key: anchor the descent at the trie's
			// predecessor, exactly as a lone Store would (Alg 6 line 1's
			// top-node fast path is skipped — the hinted descent finds an
			// existing node just as fast and primes the hint for the next
			// key while doing so).
			start = s.trie.Pred(k, false, c)
		}
		res := s.list.UpsertHinted(k, vals[i], start, &hint, c)
		if res.Existing == nil {
			inserted++
			s.insertWalkIfTop(res, c)
		}
	}
	return inserted
}

// LoadOrStore returns the existing value for key if present; otherwise it
// stores val. loaded reports whether the value was loaded rather than
// stored. Keys outside the universe are rejected (returns val, false).
func (s *SkipTrie[V]) LoadOrStore(key uint64, val V, c *stats.Op) (actual V, loaded bool) {
	k, ok := s.local(key)
	if !ok {
		return val, false
	}
	for {
		start := s.trie.Pred(k, false, c)
		if start.IsData() && start.Key() == k && !start.Marked() && !start.IsDead() {
			return s.list.ValueOf(start), true
		}
		res := s.list.Insert(k, val, start, c)
		if res.Inserted {
			s.insertWalkIfTop(res, c)
			return val, false
		}
		if res.Existing != nil {
			return s.list.ValueOf(res.Existing), true
		}
	}
}

// Delete removes key, reporting whether this call removed it. This is the
// paper's Algorithm 7.
func (s *SkipTrie[V]) Delete(key uint64, c *stats.Op) bool {
	k, ok := s.local(key)
	if !ok {
		return false
	}
	// Alg 7 line 1 uses predecessor(key-1): a strictly smaller top-level
	// anchor, so the descent does not start on the node being deleted.
	start := s.trie.Pred(k, true, c)
	res := s.list.Delete(k, start, c)
	if res.Top != nil {
		// The tower had reached the top level: disconnect the key's
		// prefixes from the trie (Alg 7 lines 5-22). This runs even when
		// the delete lost the root-mark race: the loser may be the only
		// caller holding the marked top node (see DeleteResult.Top), and
		// a duplicate walk is harmless — every step no-ops once the
		// pointers have moved off the node.
		c.TouchTrie()
		s.trie.DeleteWalk(k, res.Top, start, c)
	}
	return res.Deleted
}

// Contains reports whether key is present.
func (s *SkipTrie[V]) Contains(key uint64, c *stats.Op) bool {
	k, ok := s.local(key)
	if !ok {
		return false
	}
	start := s.trie.Pred(k, false, c)
	if start.IsData() && start.Key() == k && !start.Marked() && !start.IsDead() {
		return true
	}
	_, ok = s.list.Find(k, start, c)
	return ok
}

// Find returns the value associated with key.
func (s *SkipTrie[V]) Find(key uint64, c *stats.Op) (V, bool) {
	n, ok := s.FindNode(key, c)
	if !ok {
		var zero V
		return zero, false
	}
	return s.list.ValueOf(n), true
}

// FindNode returns the level-0 node holding key, if present. The node's
// Key() is the Base-relative offset, not the public key.
func (s *SkipTrie[V]) FindNode(key uint64, c *stats.Op) (*skiplist.Node, bool) {
	k, ok := s.local(key)
	if !ok {
		return nil, false
	}
	start := s.trie.Pred(k, false, c)
	return s.list.Find(k, start, c)
}

// SetValue overwrites the value stored at a node previously returned by
// FindNode.
func (s *SkipTrie[V]) SetValue(n *skiplist.Node, val V) {
	s.list.SetValue(n, val)
}

// valueAt reads the value of a level-0 node.
func (s *SkipTrie[V]) valueAt(n *skiplist.Node) V {
	return s.list.ValueOf(n)
}

// Predecessor returns the largest key <= x and its value. This is the
// paper's Algorithm 5.
func (s *SkipTrie[V]) Predecessor(x uint64, c *stats.Op) (uint64, V, bool) {
	var zero V
	if x < s.base {
		return 0, zero, false // every key is >= Base > x
	}
	k := x - s.base
	if s.width < 64 && k > s.localMax() {
		k = s.localMax() // clamp: everything in-universe is <= x
	}
	start := s.trie.Pred(k, false, c)
	br := s.list.PredecessorBracket(k, start, c)
	if n, ok := s.list.FindVisible(br.Right, k, 0, c); ok {
		return s.base + k, s.valueAt(n), true
	}
	if n, ok := s.list.PrevLive(br.Left, c); ok {
		return s.base + n.Key(), s.valueAt(n), true
	}
	return 0, zero, false
}

// StrictPredecessor returns the largest key < x and its value.
func (s *SkipTrie[V]) StrictPredecessor(x uint64, c *stats.Op) (uint64, V, bool) {
	var zero V
	if x <= s.base {
		return 0, zero, false // no key is strictly below Base
	}
	k := x - s.base
	if s.width < 64 && k > s.localMax() {
		return s.Max(c) // everything in-universe is < x
	}
	start := s.trie.Pred(k, true, c)
	br := s.list.PredecessorBracket(k, start, c)
	if n, ok := s.list.PrevLive(br.Left, c); ok {
		return s.base + n.Key(), s.valueAt(n), true
	}
	return 0, zero, false
}

// Successor returns the smallest key >= x and its value.
func (s *SkipTrie[V]) Successor(x uint64, c *stats.Op) (uint64, V, bool) {
	var zero V
	if x < s.base {
		x = s.base // clamp: everything in-universe is >= x
	}
	k := x - s.base
	if s.width < 64 && k > s.localMax() {
		return 0, zero, false
	}
	start := s.trie.Pred(k, true, c)
	br := s.list.PredecessorBracket(k, start, c)
	if n, ok := s.list.NextLive(br.Right, c); ok {
		return s.base + n.Key(), s.valueAt(n), true
	}
	return 0, zero, false
}

// StrictSuccessor returns the smallest key > x and its value.
func (s *SkipTrie[V]) StrictSuccessor(x uint64, c *stats.Op) (uint64, V, bool) {
	if x == ^uint64(0) {
		var zero V
		return 0, zero, false
	}
	return s.Successor(x+1, c)
}

// Min returns the smallest key and its value.
func (s *SkipTrie[V]) Min(c *stats.Op) (uint64, V, bool) {
	return s.Successor(0, c)
}

// MaxKey returns the largest key of the sub-universe, Base + 2^Width - 1.
func (s *SkipTrie[V]) MaxKey() uint64 { return s.base + s.localMax() }

// Max returns the largest key and its value.
func (s *SkipTrie[V]) Max(c *stats.Op) (uint64, V, bool) {
	start := s.trie.Pred(s.localMax(), false, c)
	br := s.list.LastBracket(start, c)
	if n, ok := s.list.PrevLive(br.Left, c); ok {
		return s.base + n.Key(), s.valueAt(n), true
	}
	var zero V
	return 0, zero, false
}

// Range calls fn for keys >= from in ascending order until fn returns
// false. The iteration is weakly consistent: it reflects some interleaving
// of concurrent updates. It is a thin loop over Iter — the one traversal
// code path.
func (s *SkipTrie[V]) Range(from uint64, fn func(key uint64, val V) bool, c *stats.Op) {
	it := s.MakeIter(c)
	for ok := it.Seek(from); ok; ok = it.Next() {
		if !fn(it.Key(), it.Value()) {
			return
		}
	}
}

// Descend calls fn for keys <= from in descending order until fn returns
// false. Each step is a strict-predecessor query (O(log log u)), since the
// level-0 list is singly linked; the iteration is weakly consistent. Like
// Range it is a thin loop over Iter.
func (s *SkipTrie[V]) Descend(from uint64, fn func(key uint64, val V) bool, c *stats.Op) {
	it := s.MakeIter(c)
	for ok := it.SeekLE(from); ok; ok = it.Prev() {
		if !fn(it.Key(), it.Value()) {
			return
		}
	}
}

// SpaceStats describes the structure's memory footprint in node counts,
// for the T6 experiment.
type SpaceStats struct {
	Keys        int // level-0 skiplist nodes (keys)
	TowerNodes  int // skiplist nodes across all levels
	TriePrefix  int // trie nodes (hash table entries)
	HashBuckets int // split-ordered hash table buckets
}

// Space returns current space statistics (approximate under concurrency).
func (s *SkipTrie[V]) Space() SpaceStats {
	return SpaceStats{
		Keys:        s.list.Len(),
		TowerNodes:  s.list.NodeCount(),
		TriePrefix:  s.trie.PrefixCount(),
		HashBuckets: s.trie.Buckets(),
	}
}

// TopGaps returns the distribution of level-0 key counts between
// consecutive top-level (trie-indexed) keys, for the F1 experiment. Call
// at quiescence.
func (s *SkipTrie[V]) TopGaps() []int { return s.list.TopGaps() }

// LevelCounts returns the number of keys present on each skiplist level
// (index 0 = all keys). Call at quiescence.
func (s *SkipTrie[V]) LevelCounts() []int { return s.list.LevelCounts() }

// Validate sweeps the quiescent structure and checks every invariant of
// the skiplist, the doubly-linked top level, and the trie. Only call while
// no operations are in flight.
func (s *SkipTrie[V]) Validate() error {
	if err := s.list.Validate(); err != nil {
		return err
	}
	return s.trie.Validate()
}
