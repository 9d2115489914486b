package skiplist

import "skiptrie/internal/stats"

// Iter is a pull-based cursor over the bottom (level-0) list: the single
// traversal primitive every ordered scan in the repository is built on.
// Seeks descend the skiplist exactly like point queries (and accept a
// top-level anchor so callers can start them from the x-fast trie);
// forward steps follow level-0 next pointers, skipping logically deleted
// nodes; backward steps re-run a predecessor descent, since the bottom
// list is singly linked.
//
// # Consistency
//
// The cursor is weakly consistent, the same contract Range has always
// had: it holds no snapshot and observes each node at the instant it
// steps onto it. Concretely:
//
//   - Every key it yields was present (unmarked) at the moment the
//     cursor positioned on it.
//   - Yielded keys are strictly monotone: next pointers only ever move
//     forward, so no key is yielded twice and order never reverses.
//   - A key deleted mid-scan may or may not be yielded, depending on
//     whether the cursor passed it first.
//   - A key inserted mid-scan ahead of the cursor may or may not be
//     yielded; one inserted behind is never seen.
//
// The cursor survives deletion of the node it rests on: a marked node's
// next link is frozen at mark time (unlinking rewrites the predecessor,
// never the marked node), so stepping forward from a deleted — even
// fully unlinked — node follows its frozen successor chain back into
// the live list, and every node on that chain carried a strictly larger
// key when the pointer was written. Backward steps ignore the resting
// node's liveness entirely: they re-search by key. Nodes are reclaimed
// by the garbage collector only once unreachable, so a parked cursor
// can never observe reused memory.
type Iter[V any] struct {
	l   *List[V]
	cur *Node // level-0 data node; nil when unpositioned or exhausted
	// at selects the view: 0 is the live view (skip marked nodes and
	// dead retained nodes), a pinned epoch is the snapshot view (yield
	// exactly the nodes visible at that epoch — see Node.VisibleAt —
	// and read each value through its version chain). The two views
	// share every navigation path; only the visibility test and the
	// value read differ.
	at uint64
}

// MakeIter returns an unpositioned cursor. Position it with SeekGE,
// SeekLE or SeekLast before reading.
func (l *List[V]) MakeIter() Iter[V] { return Iter[V]{l: l} }

// MakeSnapIter returns an unpositioned cursor over the view pinned at
// epoch at (a value returned by PinEpoch and not yet released): it
// yields exactly the keys visible at that epoch, with the values that
// were current then. Strict monotonicity holds as for the live view; a
// same-key run contributes at most one node, since incarnations'
// [born, dead) intervals are disjoint.
func (l *List[V]) MakeSnapIter(at uint64) Iter[V] { return Iter[V]{l: l, at: at} }

// Valid reports whether the cursor rests on a key.
func (it *Iter[V]) Valid() bool { return it.cur != nil }

// Reset returns the cursor to the unpositioned state.
func (it *Iter[V]) Reset() { it.cur = nil }

// Key returns the key under the cursor. Only meaningful when Valid.
func (it *Iter[V]) Key() uint64 {
	return it.cur.key
}

// Value returns the value under the cursor — for a snapshot cursor, the
// value that was current at the pinned epoch. Only meaningful when
// Valid.
func (it *Iter[V]) Value() V {
	if it.at != 0 {
		return it.l.ValueAt(it.cur, it.at)
	}
	return it.l.ValueOf(it.cur)
}

// Node returns the level-0 node under the cursor, for callers (and
// tests) that need the raw topology.
func (it *Iter[V]) Node() *Node { return it.cur }

// SeekGE positions the cursor on the smallest key >= key, descending
// from start (a top-level anchor at or before key, or nil for the
// head), and reports whether such a key exists.
func (it *Iter[V]) SeekGE(key uint64, start *Node, c *stats.Op) bool {
	br := it.l.PredecessorBracket(key, start, c)
	return it.settle(br.Right, c)
}

// SeekLE positions the cursor on the largest key <= key, descending
// from start, and reports whether such a key exists. The exact-match
// probe walks the same-key run: the newest incarnation may be outside
// the cursor's view while an older retained one is exactly the node a
// pinned epoch should see.
func (it *Iter[V]) SeekLE(key uint64, start *Node, c *stats.Op) bool {
	br := it.l.PredecessorBracket(key, start, c)
	if n, ok := it.l.FindVisible(br.Right, key, it.at, c); ok {
		it.cur = n
		return true
	}
	return it.settleBack(br.Left, c)
}

// SeekLast positions the cursor on the largest key in the list.
func (it *Iter[V]) SeekLast(start *Node, c *stats.Op) bool {
	br := it.l.LastBracket(start, c)
	return it.settleBack(br.Left, c)
}

// Next advances to the next larger key, reporting whether one exists.
// The cursor must be positioned; after Next returns false it is
// exhausted and only a Seek repositions it.
func (it *Iter[V]) Next(c *stats.Op) bool {
	if it.cur == nil {
		return false
	}
	return it.settle(it.cur.succ(), c)
}

// Prev retreats to the next smaller key via a predecessor descent from
// start (a top-level anchor strictly before the current key, or nil),
// reporting whether one exists. It searches by key, so it works even if
// the resting node has been deleted.
func (it *Iter[V]) Prev(start *Node, c *stats.Op) bool {
	if it.cur == nil {
		return false
	}
	br := it.l.PredecessorBracket(it.cur.key, start, c)
	return it.settleBack(br.Left, c)
}

// settle rests the cursor on the first node at or after n that its
// view admits (NextVisible); hitting the tail exhausts the cursor.
func (it *Iter[V]) settle(n *Node, c *stats.Op) bool {
	m, ok := it.l.NextVisible(n, it.at, c)
	if !ok {
		it.cur = nil
		return false
	}
	it.cur = m
	return true
}

// settleBack rests the cursor on the nearest node at or before n (a
// bracket's Left) that its view admits (PrevVisible, which re-probes
// same-key run heads); the head sentinel exhausts the cursor.
func (it *Iter[V]) settleBack(n *Node, c *stats.Op) bool {
	m, ok := it.l.PrevVisible(n, it.at, c)
	if !ok {
		it.cur = nil
		return false
	}
	it.cur = m
	return true
}
