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
// Node links use the same dcss.Atom representation as the SkipTrie's lists
// (pointer and mark in one word, witness-based CAS), so step-count and
// wall-clock comparisons between the two structures measure the algorithm,
// not the memory layout.
package cskiplist

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"skiptrie/internal/dcss"
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
	next   []dcss.Atom[succ]
}

type valueCell struct{ v any }

type succ struct {
	n      *node
	marked bool
}

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
		head: &node{sent: -1, height: MaxHeight, next: make([]dcss.Atom[succ], MaxHeight)},
		tail: &node{sent: +1, height: MaxHeight, next: make([]dcss.Atom[succ], MaxHeight)},
	}
	l.rng.Store(seed)
	for i := 0; i < MaxHeight; i++ {
		l.head.next[i].Store(succ{n: l.tail})
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
func (l *List) find(key uint64, preds, succs *[MaxHeight]*node, predWs *[MaxHeight]dcss.Witness[succ], c *stats.Op) bool {
retry:
	pred := l.head
	for lv := MaxHeight - 1; lv >= 0; lv-- {
		ps, pw := pred.next[lv].Load()
		if ps.marked {
			// pred was deleted at this level after the level above
			// passed it. Its witness is the marked cell, so a CAS
			// through it would clear the mark and resurrect pred.
			goto retry
		}
		curr := ps.n
		for {
			c.Hop()
			cs, cw := curr.next[lv].Load()
			for cs.marked {
				// Unlink the marked node.
				c.IncCAS()
				npw, ok := pred.next[lv].CompareAndSwap(pw, succ{n: cs.n})
				if !ok {
					goto retry
				}
				pw = npw
				curr = cs.n
				c.Hop()
				cs, cw = curr.next[lv].Load()
			}
			if curr.before(key) {
				pred, pw, curr = curr, cw, cs.n
				continue
			}
			break
		}
		preds[lv], predWs[lv], succs[lv] = pred, pw, curr
	}
	return succs[0].sent == 0 && succs[0].key == key
}

// Insert adds key with an optional value, reporting whether it was absent.
func (l *List) Insert(key uint64, val any, c *stats.Op) bool {
	var preds, succs [MaxHeight]*node
	var predWs [MaxHeight]dcss.Witness[succ]
	h := l.randomHeight()
	n := &node{key: key, height: h, next: make([]dcss.Atom[succ], h)}
	if val != nil {
		n.val.Store(&valueCell{v: val})
	}
	for {
		if l.find(key, &preds, &succs, &predWs, c) {
			return false
		}
		// Link bottom level: the linearization point.
		n.next[0].Store(succ{n: succs[0]})
		c.IncCAS()
		if _, ok := preds[0].next[0].CompareAndSwap(predWs[0], succ{n: n}); ok {
			break
		}
	}
	l.length.Add(1)
	// Raise remaining levels.
	for lv := 1; lv < h; lv++ {
		for {
			s, w := n.next[lv].Load()
			if s.marked {
				return true // deleted concurrently; stop raising
			}
			if s.n != succs[lv] {
				if _, ok := n.next[lv].CompareAndSwap(w, succ{n: succs[lv]}); !ok {
					return true // marked under us
				}
			}
			c.IncCAS()
			if _, ok := preds[lv].next[lv].CompareAndSwap(predWs[lv], succ{n: n}); ok {
				break
			}
			if l.find(key, &preds, &succs, &predWs, c) {
				// Our own node found; keep raising with fresh brackets.
			}
			if n.marked(0) {
				return true
			}
		}
	}
	return true
}

func (n *node) marked(lv int) bool {
	s, _ := n.next[lv].Load()
	return s.marked
}

// Delete removes key, reporting whether this call removed it.
func (l *List) Delete(key uint64, c *stats.Op) bool {
	var preds, succs [MaxHeight]*node
	var predWs [MaxHeight]dcss.Witness[succ]
	if !l.find(key, &preds, &succs, &predWs, c) {
		return false
	}
	n := succs[0]
	// Mark from the top of the tower down to level 1.
	for lv := n.height - 1; lv >= 1; lv-- {
		for {
			s, w := n.next[lv].Load()
			if s.marked {
				break
			}
			c.IncCAS()
			if _, ok := n.next[lv].CompareAndSwap(w, succ{n: s.n, marked: true}); ok {
				break
			}
		}
	}
	// Mark level 0: the linearization point; only one deleter wins.
	for {
		s, w := n.next[0].Load()
		if s.marked {
			return false
		}
		c.IncCAS()
		if _, ok := n.next[0].CompareAndSwap(w, succ{n: s.n, marked: true}); ok {
			l.length.Add(-1)
			l.find(key, &preds, &succs, &predWs, c) // physical cleanup
			return true
		}
	}
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
		ps, _ := pred.next[lv].Load()
		curr := ps.n
		for curr.before(key) {
			c.Hop()
			cs, _ := curr.next[lv].Load()
			pred, curr = curr, cs.n
		}
	}
	// pred < key <= pred.next[0]; skip marked nodes rightward.
	s, _ := pred.next[0].Load()
	curr := s.n
	for curr.sent == 0 {
		c.Hop()
		cs, _ := curr.next[0].Load()
		if !cs.marked {
			return curr, true
		}
		curr = cs.n
	}
	return nil, false
}

// Predecessor returns the largest key <= x.
func (l *List) Predecessor(x uint64, c *stats.Op) (uint64, bool) {
	var preds, succs [MaxHeight]*node
	var predWs [MaxHeight]dcss.Witness[succ]
	if l.find(x, &preds, &succs, &predWs, c) {
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
		s, _ := l.head.next[lv].Load()
		for n := s.n; n.sent == 0; {
			ns, _ := n.next[lv].Load()
			if !ns.marked {
				if !first && n.key <= prev {
					return fmt.Errorf("cskiplist: level %d out of order: %d after %d", lv, n.key, prev)
				}
				prev, first = n.key, false
				if lv == 0 {
					count++
				}
			}
			n = ns.n
		}
	}
	if count != l.Len() {
		return fmt.Errorf("cskiplist: %d unmarked level-0 nodes but Len() = %d", count, l.Len())
	}
	return nil
}
