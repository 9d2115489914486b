package shard

import (
	"skiptrie/internal/core"
	"skiptrie/internal/stats"
)

// Iter is a pull-based cursor over the sharded trie, serving live
// scans (Trie.MakeIter) and pinned ones (Snap.MakeIter) alike. A
// routing table's buckets tile the universe in key order and each
// bucket's trie holds only keys of its own range, so a cross-shard
// scan is a concatenation, not a merge: one bucket cursor is live at a
// time, and stepping off a bucket's edge enters the next bucket in scan
// direction at its range edge. Empty buckets cost one O(log log u)
// descent each.
//
// A live cursor re-reads the routing table on every positioning call
// (Seek, SeekLE, First, Last), while Next and Prev keep the table they
// started on, so a running scan stays strictly monotone across a Split
// or Merge. A bucket retired mid-scan is read in its frozen final
// state, every key of which was live when the bucket was sealed, inside
// the scan's window. The live cursor inherits each shard's weak
// consistency (see core.Iter) and adds the cross-shard window Trie's
// ordered queries already have: each shard is observed at its own
// instants. A pinned cursor walks its snapshot's table and epochs and
// never re-reads the routing table; the pinned view is the view.
//
// Reversing direction mid-scan re-seeks from the current key. Not safe
// for concurrent use; create one per scanner.
type Iter[V any] struct {
	t    *Trie[V]
	tab  *table[V]    // routing table the cursor walks
	pins []uint64     // pinned epoch per bucket of tab; nil for a live cursor
	c    *stats.Op    // step counter shared by the bucket cursors
	bi   int          // index of the bucket sub is positioned in
	sub  core.Iter[V] // cursor over bucket bi
	dir  int8         // +1 ascending, -1 descending, 0 unpositioned
	dead bool         // exhausted by stepping past the last bucket
}

// MakeIter returns an unpositioned live cursor over the sharded trie.
func (t *Trie[V]) MakeIter(c *stats.Op) Iter[V] { return Iter[V]{t: t, c: c} }

// Valid reports whether the cursor rests on a key.
func (m *Iter[V]) Valid() bool { return m.dir != 0 && !m.dead && m.sub.Valid() }

// Key returns the key under the cursor. Only meaningful when Valid.
func (m *Iter[V]) Key() uint64 { return m.sub.Key() }

// Value returns the value under the cursor (on a pinned cursor, the one
// current at its shard's pin). Only meaningful when Valid.
func (m *Iter[V]) Value() V { return m.sub.Value() }

// position starts a seek in direction dir; a live cursor adopts the
// current routing table.
func (m *Iter[V]) position(dir int8) {
	if m.pins == nil {
		m.tab = m.t.tab.Load()
	}
	m.dir, m.dead = dir, false
}

// walk enters buckets from index i onward in scan direction until one
// yields a key, seeking each from `from`. Buckets are ordered, so a
// bound inside bucket i lies at or beyond the far edge of every later
// bucket, and core.Iter clamps it to that bucket's range edge.
func (m *Iter[V]) walk(i int, from uint64) bool {
	for bs := m.tab.buckets; i >= 0 && i < len(bs); i += int(m.dir) {
		var at uint64 // 0 selects the live view
		if m.pins != nil {
			at = m.pins[i]
		}
		m.bi = i
		m.sub = bs[i].trie.MakeSnapIter(at, m.c)
		if m.dir > 0 && m.sub.Seek(from) || m.dir < 0 && m.sub.SeekLE(from) {
			return true
		}
	}
	m.dead = true
	return false
}

// Seek positions the cursor on the smallest key >= from, reporting
// whether such a key exists.
func (m *Iter[V]) Seek(from uint64) bool {
	m.position(+1)
	if !m.t.inUniverse(from) {
		m.dead = true
		return false
	}
	_, i := m.tab.routeIdx(from)
	return m.walk(i, from)
}

// SeekLE positions the cursor on the largest key <= from, reporting
// whether such a key exists. A from above the universe clamps to its
// maximum.
func (m *Iter[V]) SeekLE(from uint64) bool {
	m.position(-1)
	if max := m.t.MaxKey(); from > max {
		from = max
	}
	_, i := m.tab.routeIdx(from)
	return m.walk(i, from)
}

// First positions the cursor on the smallest key.
func (m *Iter[V]) First() bool { return m.Seek(0) }

// Last positions the cursor on the largest key.
func (m *Iter[V]) Last() bool { return m.SeekLE(m.t.MaxKey()) }

// Next advances to the next larger key, reporting whether one exists.
// On a fresh cursor Next is First; on a descending cursor it reverses
// direction by re-seeking strictly above the current key.
func (m *Iter[V]) Next() bool {
	switch {
	case m.dir == 0:
		return m.First()
	case !m.Valid():
		return false
	case m.dir < 0:
		k := m.Key()
		if k >= m.t.MaxKey() {
			m.dead = true
			return false
		}
		return m.Seek(k + 1)
	}
	return m.sub.Next() || m.walk(m.bi+1, 0)
}

// Prev retreats to the next smaller key, reporting whether one exists.
// On a fresh cursor Prev is Last; on an ascending cursor it reverses
// direction by re-seeking strictly below the current key.
func (m *Iter[V]) Prev() bool {
	switch {
	case m.dir == 0:
		return m.Last()
	case !m.Valid():
		return false
	case m.dir > 0:
		k := m.Key()
		if k == 0 {
			m.dead = true
			return false
		}
		return m.SeekLE(k - 1)
	}
	return m.sub.Prev() || m.walk(m.bi-1, ^uint64(0))
}
