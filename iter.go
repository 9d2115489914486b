package skiptrie

import (
	"iter"

	"skiptrie/internal/shard"
)

// Iter is a pull-based cursor over a Map, Sharded or SkipTrie, for
// scans that need resumability or interleaved control flow that the
// callback (Range/Descend) and iter.Seq2 (All/Ascend/Backward) forms
// can't express — merging several structures, pausing a scan and
// resuming it after other work, or stepping backward from a seek point.
//
// A fresh cursor is unpositioned: position it with Seek, SeekLE, First
// or Last, or just call Next (acts as First) or Prev (acts as Last).
// Then Next/Prev step in either direction and Key/Value read the
// current entry while Valid reports true. Once a cursor is exhausted
// (a step ran off the end) only a new seek repositions it.
//
// Iteration is weakly consistent — the same contract as Range: no
// snapshot is taken, every yielded key was present at the moment the
// cursor stepped onto it, yielded keys are strictly monotone per
// direction, and a key that churns mid-scan may be seen or missed. The
// cursor survives deletion of the key it rests on: forward steps follow
// the deleted node's frozen successor chain back into the live list,
// and backward steps re-search by key. On a Sharded cursor each shard
// is observed at its own instants (the cross-shard window Sharded's
// ordered queries already have). A cursor must not be shared between
// goroutines; create one per scanner.
type Iter[V any] struct {
	it shard.Iter[V]
}

// Iter returns a new unpositioned cursor over the map. On a Sharded it
// walks the shards in key order, one shard's cursor at a time (see the
// package documentation for the consistency window).
func (e *engine[V]) Iter() *Iter[V] { return &Iter[V]{it: e.t.MakeIter(nil)} }

// Iter returns a new unpositioned cursor over the set. Value reads
// yield struct{}; use Key.
func (s *SkipTrie) Iter() *Iter[struct{}] { return s.e.Iter() }

// Seek positions the cursor on the smallest key >= from, reporting
// whether such a key exists.
func (it *Iter[V]) Seek(from uint64) bool { return it.it.Seek(from) }

// SeekLE positions the cursor on the largest key <= from, reporting
// whether such a key exists.
func (it *Iter[V]) SeekLE(from uint64) bool { return it.it.SeekLE(from) }

// First positions the cursor on the smallest key.
func (it *Iter[V]) First() bool { return it.it.First() }

// Last positions the cursor on the largest key.
func (it *Iter[V]) Last() bool { return it.it.Last() }

// Next advances to the next larger key (First on a fresh cursor),
// reporting whether one exists. Forward steps are O(1) pointer hops
// within a shard.
func (it *Iter[V]) Next() bool { return it.it.Next() }

// Prev retreats to the next smaller key (Last on a fresh cursor),
// reporting whether one exists. Each backward step is one
// trie-accelerated strict-predecessor descent (O(log log u)), since
// the bottom lists are singly linked.
func (it *Iter[V]) Prev() bool { return it.it.Prev() }

// Key returns the key under the cursor. Only meaningful when Valid.
func (it *Iter[V]) Key() uint64 { return it.it.Key() }

// Value returns the value under the cursor. Only meaningful when Valid.
func (it *Iter[V]) Value() V { return it.it.Value() }

// Valid reports whether the cursor rests on a key.
func (it *Iter[V]) Valid() bool { return it.it.Valid() }

// --- iter.Seq adapters: range-over-func forms of the same traversal ---

// All returns an iterator over all key/value pairs in ascending order,
// for use with a for-range statement. Equivalent to Ascend(0).
func (e *engine[V]) All() iter.Seq2[uint64, V] { return e.Ascend(0) }

// Ascend returns an iterator over key/value pairs with key >= from in
// ascending order. Iteration is weakly consistent, like Range.
func (e *engine[V]) Ascend(from uint64) iter.Seq2[uint64, V] {
	return func(yield func(uint64, V) bool) { e.Range(from, yield) }
}

// Backward returns an iterator over key/value pairs with key <= from in
// descending order. Each step costs one strict-predecessor query.
func (e *engine[V]) Backward(from uint64) iter.Seq2[uint64, V] {
	return func(yield func(uint64, V) bool) { e.Descend(from, yield) }
}

// All returns an iterator over all keys in ascending order. Equivalent
// to Ascend(0).
func (s *SkipTrie) All() iter.Seq[uint64] { return s.Ascend(0) }

// Ascend returns an iterator over keys >= from in ascending order.
// Iteration is weakly consistent, like Range.
func (s *SkipTrie) Ascend(from uint64) iter.Seq[uint64] {
	return func(yield func(uint64) bool) { s.Range(from, yield) }
}

// Backward returns an iterator over keys <= from in descending order.
func (s *SkipTrie) Backward(from uint64) iter.Seq[uint64] {
	return func(yield func(uint64) bool) { s.Descend(from, yield) }
}
