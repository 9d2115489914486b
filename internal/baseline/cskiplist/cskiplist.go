// Package cskiplist implements a classic lock-free skiplist of height
// O(log m) in the style of Herlihy & Shavit's LockFreeSkipList (itself
// modeled on Lea's ConcurrentSkipListMap and Fomitchev-Ruppert), used as
// the baseline the SkipTrie paper compares against: every prior concurrent
// predecessor structure has depth logarithmic in m, the number of keys.
//
// Unlike the SkipTrie's truncated skiplist (internal/skiplist), towers here
// are arrays inside a single node, the height is unbounded by the universe
// (capped at MaxHeight), and searches always start from the head: cost
// Θ(log m) regardless of the universe width.
//
// Links use the SkipTrie skiplist's layout (internal/link): each level's
// link is a (next, marked) word, a delete marks a level by setting the
// mark bit of the victim's link there, and a search unlinks the victim
// with one CAS. So a hop is one dependent load in both structures, and
// wall-clock comparisons (T1, T2, T4) compare the algorithms rather than
// the link representation.
package cskiplist

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"skiptrie/internal/link"
	"skiptrie/internal/stats"
	"skiptrie/internal/uintbits"
)

// MaxHeight bounds tower heights; 2^32 keys fill it.
const MaxHeight = 32

type node struct {
	key    uint64
	val    atomic.Pointer[valueCell]
	sent   int8 // -1 head, +1 tail, 0 data
	height int
	// next holds the successor per level, marked (and frozen) once the
	// level is deleted. A level not yet linked holds the tail, so a
	// delete always marks a non-nil successor.
	next []link.Link[node]
}

// succ returns n's successor on level lv and whether n is deleted there.
func (n *node) succ(lv int) (*node, bool) { return n.next[lv].Load() }

// mark deletes n on level lv, reporting whether this call marked it.
func (n *node) mark(lv int, c *stats.Op) bool {
	for {
		s, marked := n.next[lv].Load()
		if marked {
			return false
		}
		c.IncCAS()
		if n.next[lv].Mark(s) {
			return true
		}
	}
}

type valueCell struct{ v any }

// List is a lock-free skiplist over uint64 keys.
type List struct {
	head   *node
	tail   *node
	rng    atomic.Uint64
	length atomic.Int64
}

// New returns an empty list. seed seeds tower-height randomness (0 selects
// a fixed default).
func New(seed uint64) *List {
	if seed == 0 {
		seed = 0xC1A551C0DE
	}
	l := &List{
		head: &node{sent: -1, height: MaxHeight, next: make([]link.Link[node], MaxHeight)},
		tail: &node{sent: +1, height: MaxHeight, next: make([]link.Link[node], MaxHeight)},
	}
	l.rng.Store(seed)
	for i := 0; i < MaxHeight; i++ {
		l.head.next[i].Store(l.tail)
	}
	return l
}

// Len returns the number of keys (approximate under concurrency).
func (l *List) Len() int { return int(l.length.Load()) }

func (l *List) randomHeight() int {
	x := uintbits.Mix64(l.rng.Add(0x9E3779B97F4A7C15))
	return bits.TrailingZeros64(x|1<<(MaxHeight-1)) + 1
}

// before reports whether n sorts strictly before key.
func (n *node) before(key uint64) bool {
	return n.sent < 0 || (n.sent == 0 && n.key < key)
}

// find locates the bracket of key on every level, unlinking marked nodes
// it passes. succs[0] is the first node >= key (possibly the tail).
func (l *List) find(key uint64, preds, succs *[MaxHeight]*node, c *stats.Op) bool {
retry:
	pred := l.head
	for lv := MaxHeight - 1; lv >= 0; lv-- {
		curr, marked := pred.next[lv].Load()
		if marked {
			// pred was deleted at this level after the level above
			// passed it: no CAS on its link can succeed any more.
			goto retry
		}
		for {
			c.Hop()
			next, marked := curr.next[lv].Load()
			for marked {
				c.IncCAS()
				if !pred.next[lv].CompareAndSwap(curr, next) {
					goto retry
				}
				curr = next
				c.Hop()
				next, marked = curr.next[lv].Load()
			}
			if curr.before(key) {
				pred, curr = curr, next
				continue
			}
			break
		}
		preds[lv], succs[lv] = pred, curr
	}
	return succs[0].sent == 0 && succs[0].key == key
}

// Insert adds key with an optional value, reporting whether it was absent.
func (l *List) Insert(key uint64, val any, c *stats.Op) bool {
	var preds, succs [MaxHeight]*node
	h := l.randomHeight()
	n := &node{key: key, height: h, next: make([]link.Link[node], h)}
	for lv := 1; lv < h; lv++ {
		n.next[lv].Store(l.tail)
	}
	if val != nil {
		n.val.Store(&valueCell{v: val})
	}
	for {
		if l.find(key, &preds, &succs, c) {
			return false
		}
		// Link bottom level: the linearization point.
		n.next[0].Store(succs[0])
		c.IncCAS()
		if preds[0].next[0].CompareAndSwap(succs[0], n) {
			break
		}
	}
	l.length.Add(1)
	// Raise remaining levels.
	for lv := 1; lv < h; lv++ {
		for {
			s, marked := n.next[lv].Load()
			if marked {
				return true // deleted concurrently; stop raising
			}
			if s != succs[lv] && !n.next[lv].CompareAndSwap(s, succs[lv]) {
				return true // marked under us
			}
			c.IncCAS()
			if preds[lv].next[lv].CompareAndSwap(succs[lv], n) {
				break
			}
			l.find(key, &preds, &succs, c) // fresh brackets
			if _, marked := n.succ(0); marked {
				return true
			}
		}
	}
	return true
}

// Delete removes key, reporting whether this call removed it.
func (l *List) Delete(key uint64, c *stats.Op) bool {
	var preds, succs [MaxHeight]*node
	if !l.find(key, &preds, &succs, c) {
		return false
	}
	n := succs[0]
	// Mark from the top of the tower down to level 1.
	for lv := n.height - 1; lv >= 1; lv-- {
		n.mark(lv, c)
	}
	// Mark level 0: the linearization point; only one deleter wins.
	if !n.mark(0, c) {
		return false
	}
	l.length.Add(-1)
	l.find(key, &preds, &succs, c) // physical cleanup
	return true
}

// Contains reports whether key is present.
func (l *List) Contains(key uint64, c *stats.Op) bool {
	n, ok := l.seek(key, c)
	return ok && n.key == key
}

// Value returns the value stored under key.
func (l *List) Value(key uint64, c *stats.Op) (any, bool) {
	n, ok := l.seek(key, c)
	if !ok || n.key != key {
		return nil, false
	}
	cell := n.val.Load()
	if cell == nil {
		return nil, true
	}
	return cell.v, true
}

// seek walks without cleanup and returns the first unmarked node >= key.
func (l *List) seek(key uint64, c *stats.Op) (*node, bool) {
	pred := l.head
	for lv := MaxHeight - 1; lv >= 0; lv-- {
		curr, _ := pred.succ(lv)
		for curr.before(key) {
			c.Hop()
			pred = curr
			curr, _ = curr.succ(lv)
		}
	}
	// pred < key <= pred's successor; skip marked nodes rightward.
	curr, _ := pred.succ(0)
	for curr.sent == 0 {
		c.Hop()
		next, marked := curr.succ(0)
		if !marked {
			return curr, true
		}
		curr = next
	}
	return nil, false
}

// Predecessor returns the largest key <= x.
func (l *List) Predecessor(x uint64, c *stats.Op) (uint64, bool) {
	var preds, succs [MaxHeight]*node
	if l.find(x, &preds, &succs, c) {
		return x, true
	}
	if preds[0].sent == 0 {
		return preds[0].key, true
	}
	return 0, false
}

// Successor returns the smallest key >= x.
func (l *List) Successor(x uint64, c *stats.Op) (uint64, bool) {
	n, ok := l.seek(x, c)
	if !ok {
		return 0, false
	}
	return n.key, true
}

// Validate sweeps the quiescent list and checks sorted order per level and
// tower reachability. Only call while no operations are in flight.
func (l *List) Validate() error {
	count := 0
	for lv := 0; lv < MaxHeight; lv++ {
		prev := uint64(0)
		first := true
		n, _ := l.head.succ(lv)
		for n.sent == 0 {
			next, marked := n.succ(lv)
			if !marked {
				if !first && n.key <= prev {
					return fmt.Errorf("cskiplist: level %d out of order: %d after %d", lv, n.key, prev)
				}
				prev, first = n.key, false
				if lv == 0 {
					count++
				}
			}
			n = next
		}
	}
	if count != l.Len() {
		return fmt.Errorf("cskiplist: %d unmarked level-0 nodes but Len() = %d", count, l.Len())
	}
	return nil
}
