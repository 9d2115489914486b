// Package splitorder implements a lock-free, resizable hash table using
// split-ordered lists (Shalev and Shavit, "Split-Ordered Lists: Lock-Free
// Extensible Hash Tables", PODC 2003), the table the SkipTrie paper uses
// for its prefixes map.
//
// All items live in a single lock-free sorted linked list. The list is
// sorted by "split order" — the bit-reversed hash — so that when the
// bucket count doubles, a new bucket's items already form a contiguous
// run inside its parent bucket's run, and "splitting" a bucket is just
// lazily inserting one new sentinel node. Nothing is ever rehashed or
// moved.
//
// Values live in place: each list node holds its value inline, Insert
// initializes it there before the node is published, and Lookup, Delete
// and Range hand out its address. A hit therefore reaches the value with
// no load beyond the node's own, and an entry costs one allocation. An
// entry's identity is its value's address: a key deleted and inserted
// again gets a new node, so the two incarnations never share an address.
//
// In addition to the usual operations, the SkipTrie requires
// CompareAndDelete(key, v), which removes the entry iff its value is the
// one at address v (Section 4, "The hash table"). This is the hook that
// lets trie-node tombstoning be helped by concurrent inserts without ever
// deleting a newer incarnation of the same prefix.
//
// # Mark bits
//
// Each next field is a (next, marked) word (internal/link, Harris's
// list): a delete marks its victim logically deleted by setting the low
// bit of the victim's next with one CAS, and a later CAS on the
// predecessor's next unlinks the victim. A marked next never changes
// again, because every CAS on a next field expects an unmarked word. So
// a CAS on pred.next that expects curr fails once pred is deleted, and
// inserting behind, or unlinking past, a deleted node is impossible.
// Nodes are never re-linked once unlinked and the garbage collector
// keeps a reachable address from being reused, so comparing pointers is
// enough: a CAS that finds pred.next == curr links or unlinks correctly
// whatever happened in between. The table therefore needs no DCSS:
// every update is a single-word CAS on one next field.
//
// A mark bit is never set on a nil pointer, so the list does not end in
// nil but at the Map's end node, which is compared by identity and never
// deleted. A walk visits each node with one dependent load (its header
// holds the code, key, value and next word), and whether a node is
// deleted is read from its own next word. An Insert allocates its node
// (value included) and a Delete nothing.
//
// # Split-order codes
//
// Keys are hashed to a 63-bit value h (the top bit of the 64-bit mix is
// discarded). A regular item's sort code is reverse(h) | 1 — odd; the
// sentinel for bucket b has code reverse(b) — even (bucket indexes stay
// below 2^22, so the low 42 bits of a sentinel code are zero). Reversal
// makes bucket b's sentinel sort immediately before every item with
// h ≡ b (mod 2^i) for the current table size 2^i, which is what makes
// lazy splitting sound. Ties on code (possible only for regular items
// whose 63-bit hashes collide) are broken by the key itself. Every walk
// stops at the end node by identity, so it is never ordered against a
// key, and its zero code equals no code a search looks for: regular
// codes are odd, and bucket 0's sentinel, the one other code 0, is never
// searched for.
package splitorder

import (
	"math/bits"
	"sync/atomic"

	"skiptrie/internal/link"
	"skiptrie/internal/uintbits"
)

const (
	segBits = 9 // 512 buckets per directory segment
	segSize = 1 << segBits
	dirSize = 1 << 13 // up to 2^22 = 4M buckets

	initialBuckets = 4
	// maxLoad is the average number of regular items per bucket beyond
	// which the bucket count doubles.
	maxLoad = 3
)

// Map is a lock-free hash map from uint64 keys to values of type V, each
// held in place in its list node. The zero Map is not ready for use; call
// New.
type Map[V any] struct {
	dir   [dirSize]atomic.Pointer[segment[V]]
	size  atomic.Uint64 // current bucket count, a power of two
	count atomic.Int64  // regular (non-sentinel) items, approximate
	// end is the last node of the list; a walk stops at it by identity.
	end node[V]
}

type segment[V any] [segSize]atomic.Pointer[node[V]]

// node is a regular item (odd code), a bucket sentinel (even code) or
// the Map's end node. A node is deleted iff its next is marked. Only a
// regular item's val is used.
type node[V any] struct {
	code uint64 // split-order code
	key  uint64 // original key (regular) or bucket index (sentinel)
	next link.Link[node[V]]
	val  V
}

// New returns an empty map.
func New[V any]() *Map[V] {
	m := &Map[V]{}
	m.size.Store(initialBuckets)
	return m
}

func hash63(key uint64) uint64 {
	return uintbits.Mix64(key) >> 1
}

func regularCode(h63 uint64) uint64 {
	return bits.Reverse64(h63) | 1
}

func sentinelCode(b uint64) uint64 {
	return bits.Reverse64(b)
}

// before reports whether node n sorts strictly before target (code, key).
func (n *node[V]) before(code, key uint64) bool {
	if n.code != code {
		return n.code < code
	}
	return n.key < key
}

// Lookup returns the address of the value stored under key, or nil if
// key is absent.
func (m *Map[V]) Lookup(key uint64) *V {
	h := hash63(key)
	code := regularCode(h)
	start := m.sentinel(h & (m.size.Load() - 1))
	_, curr := m.search(start, code, key)
	if curr.code == code && curr.key == key {
		return &curr.val
	}
	return nil
}

// Insert adds key if it is absent and reports whether it did. init
// initializes the new entry's value in place before the entry is
// published; it is called at most once, and not at all when key is
// already present.
func (m *Map[V]) Insert(key uint64, init func(v *V)) bool {
	h := hash63(key)
	code := regularCode(h)
	var n *node[V]
	for {
		start := m.sentinel(h & (m.size.Load() - 1))
		pred, curr := m.search(start, code, key)
		if curr.code == code && curr.key == key {
			return false
		}
		if n == nil {
			n = &node[V]{code: code, key: key}
			init(&n.val)
		}
		n.next.Store(curr)
		if pred.next.CompareAndSwap(curr, n) {
			m.count.Add(1)
			m.maybeGrow()
			return true
		}
	}
}

// Delete removes key and returns the address of the value it held, or
// nil if key was absent. The value stays readable through that address.
func (m *Map[V]) Delete(key uint64) *V {
	return m.deleteIf(key, nil)
}

// CompareAndDelete removes key iff its entry's value is the one at
// address want, reporting whether it removed the entry. This is the extra
// method the SkipTrie's trie-node tombstoning requires.
func (m *Map[V]) CompareAndDelete(key uint64, want *V) bool {
	return want != nil && m.deleteIf(key, want) != nil
}

// deleteIf removes key, if want is non-nil only while its entry's value
// is the one at want, and returns the removed value's address.
func (m *Map[V]) deleteIf(key uint64, want *V) *V {
	h := hash63(key)
	code := regularCode(h)
	for {
		start := m.sentinel(h & (m.size.Load() - 1))
		p, curr := m.search(start, code, key)
		if curr.code != code || curr.key != key {
			return nil
		}
		if want != nil && &curr.val != want {
			return nil
		}
		next, marked := curr.next.Load()
		if marked {
			continue // concurrently deleted; re-search to converge
		}
		if curr.next.Mark(next) {
			m.count.Add(-1)
			// Best-effort physical unlink; searches clean up otherwise.
			p.next.CompareAndSwap(curr, next)
			return &curr.val
		}
	}
}

// search walks from start (a sentinel) and returns (pred, curr) such
// that pred sorts before (code, key), curr is the first node not before
// (code, key) (the end node at the end of the list), and pred.next was
// curr when read. Deleted nodes passed on the way are physically
// unlinked, and a curr holding exactly (code, key) was not deleted when
// its next was read. A curr past (code, key) is returned without that
// check: no caller needs its liveness.
func (m *Map[V]) search(start *node[V], code, key uint64) (pred, curr *node[V]) {
	// start is a sentinel and sentinels are never deleted, so the initial
	// pred is always a valid left anchor.
retry:
	pred = start
	curr, _ = pred.next.Load()
	for curr != &m.end {
		before := curr.before(code, key)
		if !before && (curr.code != code || curr.key != key) {
			return pred, curr
		}
		next, marked := curr.next.Load()
		if marked {
			// Unlink curr; restart if pred changed.
			if !pred.next.CompareAndSwap(curr, next) {
				goto retry
			}
			curr = next
			continue
		}
		if !before {
			return pred, curr
		}
		pred, curr = curr, next
	}
	return pred, curr
}

// sentinel returns bucket b's sentinel node, lazily splicing it (and,
// recursively, its parents') into the list.
func (m *Map[V]) sentinel(b uint64) *node[V] {
	if s := m.slot(b).Load(); s != nil {
		return s
	}
	return m.initBucket(b)
}

// parentBucket clears the highest set bit: the bucket b split from.
func parentBucket(b uint64) uint64 {
	return b &^ (1 << (bits.Len64(b) - 1))
}

func (m *Map[V]) initBucket(b uint64) *node[V] {
	slot := m.slot(b)
	if b == 0 {
		n := &node[V]{code: 0}
		n.next.Store(&m.end)
		if slot.CompareAndSwap(nil, n) {
			return n
		}
		return slot.Load()
	}
	parent := m.sentinel(parentBucket(b))
	code := sentinelCode(b)
	for {
		pred, curr := m.search(parent, code, b)
		if curr.code == code {
			// A racing initializer already spliced it in.
			slot.CompareAndSwap(nil, curr)
			return slot.Load()
		}
		n := &node[V]{code: code, key: b}
		n.next.Store(curr)
		if pred.next.CompareAndSwap(curr, n) {
			slot.CompareAndSwap(nil, n)
			return slot.Load()
		}
	}
}

func (m *Map[V]) slot(b uint64) *atomic.Pointer[node[V]] {
	segIdx := b >> segBits
	seg := m.dir[segIdx].Load()
	if seg == nil {
		m.dir[segIdx].CompareAndSwap(nil, new(segment[V]))
		seg = m.dir[segIdx].Load()
	}
	return &seg[b&(segSize-1)]
}

func (m *Map[V]) maybeGrow() {
	size := m.size.Load()
	if m.count.Load() > int64(size)*maxLoad && size < dirSize*segSize/2 {
		m.size.CompareAndSwap(size, size*2)
	}
}

// Len returns the number of items in the map. Under concurrent mutation
// the value is a point-in-time approximation.
func (m *Map[V]) Len() int {
	return int(m.count.Load())
}

// Buckets returns the current bucket count (for space accounting).
func (m *Map[V]) Buckets() int {
	return int(m.size.Load())
}

// Range calls fn on each key and the address of its value until fn
// returns false. The iteration is weakly consistent: it reflects some
// interleaving of concurrent updates.
func (m *Map[V]) Range(fn func(key uint64, v *V) bool) {
	curr := m.sentinel(0)
	for curr != &m.end {
		next, marked := curr.next.Load()
		if marked {
			curr = next
			continue
		}
		if curr.code&1 == 1 && !fn(curr.key, &curr.val) {
			return
		}
		curr = next
	}
}
