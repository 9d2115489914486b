package skiptrie

import "skiptrie/internal/shard"

// engine is the one implementation under Map, Sharded and SkipTrie: a
// sharded trie plus the Metrics collector and TraceHooks attached at
// construction. Map and Sharded embed it, so every method they share is
// declared once, here and beside the features built on it (snapshots,
// iteration, batches, dump and restore, watch). SkipTrie holds one over
// zero-size values and adapts it to the set signatures. Map and
// SkipTrie run a trie fixed at one shard, Sharded a partitioned,
// reshardable one.
type engine[V any] struct {
	t *shard.Trie[V]
	m *Metrics
	h *TraceHooks
}

// newEngine builds an engine from resolved options. shards and
// maxShards are shard.Config's Shards and MaxShards; 1 and 1 fix the
// trie at one shard that never reshards.
func newEngine[V any](o options, shards, maxShards int) engine[V] {
	t := shard.New[V](shard.Config{
		Width:     o.width,
		Shards:    shards,
		MaxShards: maxShards,
		Repair:    o.repair,
		Seed:      o.seed,
		Trace:     o.hooks.internalTrace(),
	})
	attachGauges(o.metrics, t, func(t *shard.Trie[V]) gaugeSample {
		live, retained, segs, oldest := t.PinStats()
		return gaugeSample{livePins: live, oldestPinAge: oldest,
			retainedNodes: retained, journalSegments: segs}
	})
	return engine[V]{t: t, m: o.metrics, h: o.hooks}
}

// Store sets the value for key, inserting it if absent. Overwriting an
// existing key's value happens in place, without allocation. Keys outside
// the universe [0, 2^W) are rejected: nothing is stored.
func (e *engine[V]) Store(key uint64, val V) {
	t := e.m.latStart()
	c := e.m.op()
	e.t.Store(key, val, c)
	e.m.record(OpInsert, c)
	e.m.recordLatency(OpInsert, t)
}

// Load returns the value stored under key.
func (e *engine[V]) Load(key uint64) (V, bool) {
	t := e.m.latStart()
	c := e.m.op()
	v, ok := e.t.Find(key, c)
	e.m.record(OpContains, c)
	e.m.recordLatency(OpContains, t)
	return v, ok
}

// LoadOrStore returns the existing value for key if present; otherwise it
// stores val. The loaded result reports whether the value was loaded. Keys
// outside the universe [0, 2^W) are rejected: nothing is stored and the
// result is (val, false) even though no later Load will find it.
func (e *engine[V]) LoadOrStore(key uint64, val V) (actual V, loaded bool) {
	t := e.m.latStart()
	c := e.m.op()
	actual, loaded = e.t.LoadOrStore(key, val, c)
	e.m.record(OpInsert, c)
	e.m.recordLatency(OpInsert, t)
	return actual, loaded
}

// Delete removes key and reports whether this call removed it.
func (e *engine[V]) Delete(key uint64) bool {
	t := e.m.latStart()
	c := e.m.op()
	ok := e.t.Delete(key, c)
	e.m.record(OpDelete, c)
	e.m.recordLatency(OpDelete, t)
	return ok
}

// Predecessor returns the largest key <= x and its value.
func (e *engine[V]) Predecessor(x uint64) (uint64, V, bool) {
	t := e.m.latStart()
	c := e.m.op()
	k, v, ok := e.t.Predecessor(x, c)
	e.m.record(OpPredecessor, c)
	e.m.recordLatency(OpPredecessor, t)
	return k, v, ok
}

// Successor returns the smallest key >= x and its value.
func (e *engine[V]) Successor(x uint64) (uint64, V, bool) {
	t := e.m.latStart()
	c := e.m.op()
	k, v, ok := e.t.Successor(x, c)
	e.m.record(OpSuccessor, c)
	e.m.recordLatency(OpSuccessor, t)
	return k, v, ok
}

// StrictPredecessor returns the largest key < x and its value.
func (e *engine[V]) StrictPredecessor(x uint64) (uint64, V, bool) {
	t := e.m.latStart()
	c := e.m.op()
	k, v, ok := e.t.StrictPredecessor(x, c)
	e.m.record(OpPredecessor, c)
	e.m.recordLatency(OpPredecessor, t)
	return k, v, ok
}

// StrictSuccessor returns the smallest key > x and its value.
func (e *engine[V]) StrictSuccessor(x uint64) (uint64, V, bool) {
	t := e.m.latStart()
	c := e.m.op()
	k, v, ok := e.t.StrictSuccessor(x, c)
	e.m.record(OpSuccessor, c)
	e.m.recordLatency(OpSuccessor, t)
	return k, v, ok
}

// Min returns the smallest key and its value.
func (e *engine[V]) Min() (uint64, V, bool) { return e.t.Min(nil) }

// Max returns the largest key and its value.
func (e *engine[V]) Max() (uint64, V, bool) { return e.t.Max(nil) }

// Len returns the number of keys (approximate under concurrent mutation).
func (e *engine[V]) Len() int { return e.t.Len() }

// Range calls fn on each key/value with key >= from in ascending order
// until fn returns false. Iteration is weakly consistent (on a Sharded,
// per shard).
func (e *engine[V]) Range(from uint64, fn func(key uint64, val V) bool) {
	e.t.Range(from, fn, nil)
}

// Descend calls fn on each key/value with key <= from in descending order
// until fn returns false. Each step costs one strict-predecessor query.
func (e *engine[V]) Descend(from uint64, fn func(key uint64, val V) bool) {
	e.t.Descend(from, fn, nil)
}

// Validate checks the quiescent structure's invariants, every shard's
// and the partition's (see SkipTrie.Validate).
func (e *engine[V]) Validate() error { return e.t.Validate() }
