package core

import (
	"skiptrie/internal/skiplist"
	"skiptrie/internal/stats"
)

// Iter is a pull-based cursor over one SkipTrie, lifting the skiplist
// cursor (internal/skiplist.Iter) to the composed structure: every seek
// — and every backward step, since the bottom list is singly linked —
// first asks the x-fast trie for a top-level anchor, so positioning
// costs the paper's O(log log u) rather than a top-level list walk, and
// forward steps are O(1) succ-pointer hops. Keys are translated between
// the public key space and the trie's Base-relative sub-universe at
// this boundary, exactly as the point operations do.
//
// The cursor is weakly consistent with the same window as Range: each
// yielded key was present at the moment the cursor stepped onto it,
// yielded keys are strictly monotone per direction, and keys that churn
// mid-scan may be seen or missed (see skiplist.Iter). The cursor is
// bidirectional: Next and Prev may be interleaved freely, and a fresh
// cursor treats Next as First and Prev as Last. It is not safe for
// concurrent use by multiple goroutines; create one per scanner.
type Iter[V any] struct {
	s       *SkipTrie[V]
	it      skiplist.Iter[V]
	c       *stats.Op
	started bool
}

// MakeIter returns an unpositioned value cursor (stack-friendly for
// internal scans and for embedding in the sharded cursor).
func (s *SkipTrie[V]) MakeIter(c *stats.Op) Iter[V] {
	return Iter[V]{s: s, it: s.list.MakeIter(), c: c}
}

// MakeSnapIter returns an unpositioned cursor over the view pinned at
// epoch at (obtained from PinEpoch and not yet released): it yields
// exactly the keys visible at that epoch with the values current then,
// with the same navigation costs as the live cursor. Unlike the live
// cursor it is strongly consistent — the pinned view cannot change
// under it. Epochs start at 1, so at == 0 selects the live view: the
// cursor MakeIter returns.
func (s *SkipTrie[V]) MakeSnapIter(at uint64, c *stats.Op) Iter[V] {
	return Iter[V]{s: s, it: s.list.MakeSnapIter(at), c: c}
}

// Valid reports whether the cursor rests on a key.
func (it *Iter[V]) Valid() bool { return it.it.Valid() }

// Key returns the key under the cursor (translated back to the public
// key space). Only meaningful when Valid.
func (it *Iter[V]) Key() uint64 { return it.s.base + it.it.Key() }

// Value returns the value under the cursor. Only meaningful when Valid.
func (it *Iter[V]) Value() V { return it.it.Value() }

// Seek positions the cursor on the smallest key >= from, reporting
// whether such a key exists. A from below the sub-universe clamps to
// its base; a from above it exhausts the cursor.
func (it *Iter[V]) Seek(from uint64) bool {
	it.started = true
	s := it.s
	if from < s.base {
		from = s.base
	}
	k := from - s.base
	if s.width < 64 && k > s.localMax() {
		it.it.Reset()
		return false
	}
	start := s.trie.Pred(k, true, it.c)
	return it.it.SeekGE(k, start, it.c)
}

// SeekLE positions the cursor on the largest key <= from, reporting
// whether such a key exists. A from above the sub-universe clamps to
// its maximum; a from below it exhausts the cursor.
func (it *Iter[V]) SeekLE(from uint64) bool {
	it.started = true
	s := it.s
	if from < s.base {
		it.it.Reset()
		return false
	}
	k := from - s.base
	if s.width < 64 && k > s.localMax() {
		k = s.localMax()
	}
	start := s.trie.Pred(k, false, it.c)
	return it.it.SeekLE(k, start, it.c)
}

// First positions the cursor on the smallest key.
func (it *Iter[V]) First() bool { return it.Seek(it.s.base) }

// Last positions the cursor on the largest key.
func (it *Iter[V]) Last() bool {
	it.started = true
	start := it.s.trie.Pred(it.s.localMax(), false, it.c)
	return it.it.SeekLast(start, it.c)
}

// Next advances to the next larger key, reporting whether one exists:
// an O(1) hop along the bottom list. On a fresh cursor Next is First.
// Once the cursor is exhausted only a Seek (or First/Last) repositions
// it.
func (it *Iter[V]) Next() bool {
	if !it.started {
		return it.First()
	}
	return it.it.Next(it.c)
}

// Prev retreats to the next smaller key, reporting whether one exists:
// a trie-accelerated strict-predecessor descent, since the bottom list
// is singly linked. On a fresh cursor Prev is Last.
func (it *Iter[V]) Prev() bool {
	if !it.started {
		return it.Last()
	}
	if !it.it.Valid() {
		return false
	}
	start := it.s.trie.Pred(it.it.Key(), true, it.c)
	return it.it.Prev(start, it.c)
}
