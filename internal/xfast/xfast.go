// Package xfast implements the SkipTrie paper's lock-free concurrent
// x-fast trie (Section 4), to our knowledge the first concurrent x-fast
// trie construction in the literature.
//
// The trie is a hash table (split-ordered, see internal/splitorder)
// mapping every proper prefix of every top-level skiplist key to a trie
// node, held in place in its table entry. Unlike the sequential x-fast
// trie, every trie node — binary or unary — stores a pair of pointers
// into the top level of the skiplist: pointers[0] targets the largest
// key of the prefix's 0-subtree and pointers[1] the smallest key of its
// 1-subtree. The paper's reason is recovery: without pointers in binary
// nodes, a query whose lower subtree is concurrently emptied would be
// left stranded with no pointer into the list (Section 4, opening).
//
// The two pointers live in one immutable Pair behind an atomic pointer (the
// paper's "double-wide" field), so the (null, null) tombstone test of
// Algorithms 6/7 is atomic. Every swing installs a fresh Pair by a CAS
// against the Pair it loaded, so a CAS witnessed against an older pair
// fails even if the pointers read the same again, and a tombstoned trie
// node can never be revived: every pointer swing is witnessed against a
// non-tombstone pair.
//
// Queries follow the paper's Algorithm 3 except in the order of the
// probes. Where the paper binary-searches every prefix length,
// LowestAncestor gallops from a start depth, one per region of the
// universe, that follows the depths recent searches found; it probes the
// root prefix ε only when no proper prefix was found. At quiescence it
// finds the same lowest ancestor in about 3.5 probes instead of
// ⌈log2 W⌉+1, and never in more than 2⌈log2 W⌉ (one at W = 1).
//
// Writes follow the paper's algorithms:
//   - insert walks prefixes longest-first (Algorithm 6), creating missing
//     nodes, helping delete tombstoned ones and marked pointers, and
//     swinging pointers outward to the new node;
//   - delete walks prefixes shortest-first (Algorithm 7), swinging
//     pointers off the deleted node onto its still-adjacent unmarked
//     neighbours (found by listSearch), nulling pointers whose subtree
//     emptied, and removing (null, null) nodes from the hash table with
//     compareAndDelete.
//
// The paper swings a pointer by DCSS, conditioned on the new target
// remaining unmarked. Here every swing is a plain CAS, and a target found
// marked once the swing has landed is disconnected again (swing); the
// paper proves the trie linearizable and lock-free when DCSS degrades to
// CAS, and the repair covers what the guard would have refused.
package xfast

import (
	"fmt"
	"sync/atomic"

	"skiptrie/internal/skiplist"
	"skiptrie/internal/splitorder"
	"skiptrie/internal/stats"
	"skiptrie/internal/uintbits"
)

// Pair is a trie node's double-wide pointer field: the largest top-level
// key of the 0-subtree and the smallest of the 1-subtree. A nil pointer
// means "that subtree is empty (except possibly for in-flight inserts)";
// the (nil, nil) pair is the tombstone of a node slated for removal from
// the hash table.
type Pair struct {
	Zero *skiplist.Node
	One  *skiplist.Node
}

// Get returns the pointer for direction d.
func (p Pair) Get(d uint8) *skiplist.Node {
	if d == 0 {
		return p.Zero
	}
	return p.One
}

// With returns a copy of p with direction d replaced by n.
func (p Pair) With(d uint8, n *skiplist.Node) Pair {
	if d == 0 {
		p.Zero = n
	} else {
		p.One = n
	}
	return p
}

// IsTombstone reports whether both subtree pointers are nil.
func (p Pair) IsTombstone() bool { return p.Zero == nil && p.One == nil }

// treeNode is one trie node; its only mutable state is the pointer pair,
// exactly as in the paper ("a tree node n has a single field, n.pointers").
// It lives in place in its hash-table entry, so its address is the entry's
// identity. pointers is set before the entry is published and never nil
// afterwards; the Pair it points at is never written.
type treeNode struct {
	pointers atomic.Pointer[Pair]
}

// startStripes is the number of start depths LowestAncestor keeps, one
// per region of the universe named by a key's top startBits bits. Keys
// in one region share a density, so they share a good start depth; and
// searches of different regions do not land their one-step updates on
// one shared cache line. The stripe depends only on the key, so a
// sequence of searches probes the same prefixes on every run.
const (
	startBits    = 4
	startStripes = 1 << startBits
)

// startStripe is one padded start depth of LowestAncestor's gallop.
type startStripe struct {
	depth atomic.Uint32
	_     [60]byte
}

// Trie is a lock-free x-fast trie over the top level of a truncated
// skiplist.
type Trie struct {
	// start leads the struct so that its stores stay off the cache line
	// of the read-only fields below.
	start    [startStripes]startStripe
	width    uint8 // W = log u
	list     *skiplist.Topology
	prefixes *splitorder.Map[treeNode]
}

// Config configures a Trie.
type Config struct {
	// Width is the universe width W = log u, in [1, 64].
	Width uint8
	// List is the value-free topology of the skiplist whose top level the
	// trie indexes (List[V].Topo()); the trie itself is value-agnostic and
	// compiles once for every List[V] instantiation.
	List *skiplist.Topology
}

// New returns an empty trie.
func New(cfg Config) *Trie {
	w := cfg.Width
	if w < 1 {
		w = 1
	}
	if w > uintbits.MaxWidth {
		w = uintbits.MaxWidth
	}
	t := &Trie{
		width:    w,
		list:     cfg.List,
		prefixes: splitorder.New[treeNode](),
	}
	for i := range t.start {
		t.start[i].depth.Store(uint32(max(w/2, 1)))
	}
	return t
}

// Width returns the universe width.
func (t *Trie) Width() uint8 { return t.width }

// PrefixCount returns the number of trie nodes currently in the hash
// table (for space accounting, experiment T6).
func (t *Trie) PrefixCount() int { return t.prefixes.Len() }

// Buckets returns the hash table's bucket count (for space accounting).
func (t *Trie) Buckets() int { return t.prefixes.Buckets() }

// lookup returns the trie node of prefix p, or nil if p is absent.
func (t *Trie) lookup(p uintbits.Prefix, c *stats.Op) *treeNode {
	c.Probe()
	return t.prefixes.Lookup(p.Encode())
}

// LowestAncestor is the paper's Algorithm 3: search on prefix length for
// the longest prefix of key present in the trie, remembering the best
// (closest-keyed) list pointer seen. It returns a top-level skiplist node,
// or the head sentinel if the search saw no usable pointer.
//
// Where the paper binary-searches every prefix length, this search
// gallops from a start depth: it probes that depth, steps outward by 1,
// 3, 7, … until the answer flips, and binary-searches the bracket. The
// root prefix ε is probed only when no proper prefix was found. The start
// depth is one of startStripes, picked by the key's top bits, and each
// search moves its stripe one step toward the depth it found, so the
// start settles where most searches of that region end: about 3.5 probes
// per search instead of the binary search's ⌈log2 W⌉+1. Whatever the
// start, and whatever concurrent updates do to the answers, a search
// makes at most 2⌈log2 W⌉ probes (one at W = 1): the start, at most
// ⌈log2 W⌉ gallop steps, and a binary search of the last step's bracket,
// one probe fewer; ε is probed only after every gallop step missed, which
// leaves no bracket to search.
// So the paper's O(log log u) bound holds.
//
// Like the paper's version the search is only advisory under concurrency:
// the returned node may be marked or on the wrong side of key;
// xFastTriePred (Pred) walks back/prev pointers afterwards.
func (t *Trie) LowestAncestor(key uint64, c *stats.Op) *skiplist.Node {
	s := ancestorSearch{t: t, key: key, best: t.list.Head()}
	if top := int(t.width) - 1; top > 0 {
		st := &t.start[key<<(64-t.width)>>(64-startBits)].depth
		from := int(st.Load())
		found := s.gallop(from, top, c)
		// Store only on a change, so that a settled stripe's cache line
		// stays shared among the cores reading it.
		next := from
		if found > from {
			next++
		} else if found < from && from > 1 {
			next--
		}
		if next != from {
			st.Store(uint32(next))
		}
	}
	if s.deepest == nil {
		s.probe(0, c) // paper line 4: the root prefix ε
	}
	return s.result()
}

// ancestorSearch is the state of one LowestAncestor search: the deepest
// prefix found so far and the closest list pointer seen. The step counter
// is passed to each call instead of kept here: escape analysis does not
// track fields apart, so a counter stored beside the returned node would
// escape with it and the caller's stack-allocated stats.Op would move to
// the heap.
type ancestorSearch struct {
	t        *Trie
	key      uint64
	best     *skiplist.Node
	haveBest bool
	bestDist uint64
	deepest  *treeNode
	depth    uint8 // length of deepest's prefix
}

// gallop finds the longest present proper prefix of s.key, with length in
// [1, top], starting at length from, and returns its length (0 if none
// was found). A length probed present counts as the answer's lower bound
// and one probed absent as its upper bound, so every probe after the
// first narrows the bracket even if the trie changes under the search.
func (s *ancestorSearch) gallop(from, top int, c *stats.Op) int {
	lo, hi := 0, top+1 // present at lo (0: none found yet), absent at hi
	if s.probe(uint8(from), c) {
		lo = from
		for step := 1; lo < top; step = 2*step + 1 {
			l := min(from+step, top)
			if !s.probe(uint8(l), c) {
				hi = l
				break
			}
			lo = l
		}
	} else {
		hi = from
		for step := 1; hi > 1; step = 2*step + 1 {
			l := max(from-step, 1)
			if s.probe(uint8(l), c) {
				lo = l
				break
			}
			hi = l
		}
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if s.probe(uint8(mid), c) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// probe looks up the length-l prefix of s.key and reports whether it is
// present. A present node becomes the deepest found (every search probes
// a length only above its deepest hit) and both its pointers are
// considered.
func (s *ancestorSearch) probe(l uint8, c *stats.Op) bool {
	prefix := uintbits.PrefixOf(s.key, l, s.t.width)
	tn := s.t.lookup(prefix, c)
	if tn == nil {
		return false
	}
	s.deepest, s.depth = tn, l
	// Both subtree pointers are examined. The pointer on the key's own
	// side is a guide into the containing subtree; the pointer on the
	// opposite side of the lowest ancestor is exactly the predecessor (or
	// successor) — tracking the closest of all of them is the paper's
	// "best pointer seen so far" and is what bounds the list cost after
	// the search.
	pair := tn.pointers.Load()
	for b := uint8(0); b <= 1; b++ {
		cand := pair.Get(b)
		if cand == nil || !cand.IsData() {
			continue
		}
		// Paper line 11: the candidate must actually lie under the
		// queried prefix's b-subtree (stale pointers may escape it
		// transiently).
		if !prefix.Child(b).IsPrefixOfKey(cand.Key(), s.t.width) {
			continue
		}
		if dist := uintbits.Dist(s.key, cand.Key()); !s.haveBest || dist <= s.bestDist {
			s.best, s.haveBest, s.bestDist = cand, true, dist
		}
	}
	return true
}

// result picks the search's answer from the deepest node found and the
// best pointer seen.
func (s *ancestorSearch) result() *skiplist.Node {
	if s.haveBest && s.bestDist == 0 {
		return s.best // the key itself is a top-level node
	}
	// Sequential x-fast rule: at the lowest ancestor, the subtree on the
	// key's side is empty, so the pointer on the opposite side is exactly
	// the predecessor (key's bit = 1) or successor (key's bit = 0) among
	// top-level keys — Willard's invariant, which bounds the list walk
	// after the search to O(1) in the absence of contention. Under
	// concurrent churn the pointer can be stale; then we fall back to the
	// closest pointer seen during the search, whose extra list cost the
	// paper charges to the overlapping-interval contention (Lemma 4.2).
	if s.deepest != nil {
		w := s.t.width
		sib := 1 - uintbits.Bit(s.key, s.depth, w)
		pair := s.deepest.pointers.Load()
		if cand := pair.Get(sib); cand != nil && cand.IsData() &&
			uintbits.PrefixOf(s.key, s.depth, w).Child(sib).IsPrefixOfKey(cand.Key(), w) {
			return cand
		}
	}
	return s.best
}

// Pred is the paper's Algorithm 4 (xFastTriePred): locate the lowest
// ancestor's list pointer, then walk back pointers (of marked nodes) and
// prev pointers (of unmarked ones) until reaching a top-level node whose
// key is at most key — strictly less than key when strict is set. The
// result may be the head sentinel.
func (t *Trie) Pred(key uint64, strict bool, c *stats.Op) *skiplist.Node {
	curr := t.LowestAncestor(key, c)
	for curr.IsData() {
		if curr.Key() < key || (!strict && curr.Key() == key) {
			break
		}
		c.Hop()
		if curr.Marked() {
			curr = curr.Back()
		} else {
			curr = curr.Prev()
		}
	}
	return curr
}

// InsertWalk is lines 5-19 of the paper's Algorithm 6: after node reached
// the skiplist's top level, walk its proper prefixes longest-first and make
// each trie level reflect it. The walk stops early if node gets marked.
//
// A node already marked when the walk starts is disconnected instead
// (DeleteWalk). Its insert may have torn it down itself, its raise having
// landed after a delete of its key scanned the top level; no delete then
// reports it, yet while it was linked a neighbour's DeleteWalk may have
// swung a pointer onto it. If a delete did report it, the second walk is
// a no-op.
func (t *Trie) InsertWalk(node *skiplist.Node, c *stats.Op) {
	key := node.Key()
	if node.Marked() {
		t.DeleteWalk(key, node, node, c)
		return
	}
	for l := int(t.width) - 1; l >= 0; l-- {
		p := uintbits.PrefixOf(key, uint8(l), t.width)
		d := uintbits.Bit(key, uint8(l), t.width)
		c.TrieLevel()
		for !node.Marked() {
			tn := t.lookup(p, c)
			if tn == nil {
				// Create the trie level for this prefix.
				c.Probe()
				if t.prefixes.Insert(p.Encode(), func(tn *treeNode) {
					pair := Pair{}.With(d, node)
					tn.pointers.Store(&pair)
				}) {
					// Re-check the mark now that the level is visible: a
					// deleter that marked node between the loop's check
					// and our insert has a shortest-first walk that may
					// already be past this prefix, which would leave it
					// stale forever. Disconnecting it ourselves is safe
					// either way — deleteLevel is a no-op once the
					// pointer no longer targets node.
					if node.Marked() {
						t.deleteLevel(key, node, node, l, c)
					}
					break // crossed this level
				}
				continue // lost the race; retry the level
			}
			pair := tn.pointers.Load()
			if pair.IsTombstone() {
				// Slated for deletion: help remove it, then retry.
				c.Probe()
				t.prefixes.CompareAndDelete(p.Encode(), tn)
				continue
			}
			// A marked pointer in the subtree is helped off its node
			// first: that node's own DeleteWalk may have searched before
			// node was linked, and trusting the pointer would leave node
			// unrepresented once that walk's swing lands.
			cur := pair.Get(d)
			if cur != node && cur != nil && cur.IsData() && cur.Marked() &&
				p.Child(d).IsPrefixOfKey(cur.Key(), t.width) {
				t.deleteLevel(cur.Key(), cur, cur, l, c)
				continue
			}
			// A different node with node's key is an older incarnation
			// being deleted, whose DeleteWalk may swing the pointer past
			// node to a strict neighbour: it does not represent node.
			if cur == node || cur != nil && cur.IsData() &&
				((d == 0 && cur.Key() > key) || (d == 1 && cur.Key() < key)) {
				break // node is adequately represented at this level
			}
			// Swing the pointer outward to node, conditioned on node
			// remaining unmarked (paper line 19).
			if t.swing(tn, pair, pair.With(d, node), node, l, c) {
				break
			}
		}
	}
}

// swing replaces tn's pair old by newPair, whose changed pointer targets
// target (nil to null it), at trie level l: a CAS against old installs a
// fresh Pair, so a swing witnessed against an older pair fails even when
// the pointers read the same again. A target found marked once the swing
// has landed is disconnected from the level again: its own DeleteWalk may
// have passed the level before the swing landed, and then nothing else
// would move the pointer off it. This repair covers what the paper's DCSS
// guard, that the target is still unmarked, would have refused.
func (t *Trie) swing(tn *treeNode, old *Pair, newPair Pair,
	target *skiplist.Node, l int, c *stats.Op) bool {
	c.IncCAS()
	ok := tn.pointers.CompareAndSwap(old, &newPair)
	if ok && target != nil && target.Marked() {
		t.deleteLevel(target.Key(), target, target, l, c)
	}
	return ok
}

// DeleteWalk is lines 5-22 of the paper's Algorithm 7: after node (a
// top-level skiplist node holding key) has been deleted from the skiplist,
// walk its proper prefixes shortest-first and disconnect it from the trie:
// swing each pointer still targeting node onto the neighbour returned by a
// top-level listSearch, null pointers whose subtree has emptied, and
// remove tombstoned trie nodes from the hash table. hint seeds the
// top-level searches (nil for the head).
func (t *Trie) DeleteWalk(key uint64, node *skiplist.Node, hint *skiplist.Node, c *stats.Op) {
	left := hint
	for l := 0; l < int(t.width); l++ {
		left = t.deleteLevel(key, node, left, l, c)
	}
}

// deleteLevel disconnects node from the trie level holding the length-l
// prefix of key: one iteration of DeleteWalk, also used by InsertWalk to
// clean up a level it created for a concurrently deleted node. left
// seeds the top-level searches (nil for the head); the updated hint is
// returned.
func (t *Trie) deleteLevel(key uint64, node *skiplist.Node, left *skiplist.Node, l int, c *stats.Op) *skiplist.Node {
	p := uintbits.PrefixOf(key, uint8(l), t.width)
	d := uintbits.Bit(key, uint8(l), t.width)
	c.TrieLevel()
	tn := t.lookup(p, c)
	if tn == nil {
		return left
	}
	pair := tn.pointers.Load()
	for pair.Get(d) == node {
		br := t.list.SearchTop(key, left, c)
		left = br.Left
		child := p.Child(d)
		// The new candidate for "largest in the 0-subtree" is the deleted
		// key's left neighbour, and for "smallest in the 1-subtree" its
		// right neighbour. A neighbour outside the subtree proves the
		// subtree held no other top-level key when the search ran, so the
		// pointer is nulled (paper line 20). A key linked into the
		// subtree after the search is not lost: its InsertWalk reaches
		// this level only after the link, finds the pointer on node
		// (marked, so it helps move it with a search that sees the key)
		// or on what this swing installed, and swings it to the key
		// unless that is already closer. This swing's witness fails once
		// that walk has changed the pair.
		var next *skiplist.Node
		if d == 0 && br.Left.IsData() && child.IsPrefixOfKey(br.Left.Key(), t.width) {
			next = br.Left
		} else if d == 1 && br.Right.IsData() && child.IsPrefixOfKey(br.Right.Key(), t.width) {
			// Paper's makeDone(left, right): complete the successor's
			// backward link before publishing it.
			t.list.FixPrev(br.Left, br.Right, c)
			next = br.Right
		}
		t.swing(tn, pair, pair.With(d, next), next, l, c)
		pair = tn.pointers.Load()
	}
	// Even if another operation moved the pointer first, help null a
	// pointer that escaped its subtree (paper line 19-20 applies to the
	// current value, not only to ours).
	if cur := pair.Get(d); cur != nil {
		stale := !cur.IsData() || !p.Child(d).IsPrefixOfKey(cur.Key(), t.width)
		if stale {
			t.swing(tn, pair, pair.With(d, nil), nil, l, c)
			pair = tn.pointers.Load()
		}
	}
	if pair.IsTombstone() {
		// The whole prefix emptied: remove its node from the table
		// (paper lines 21-22), keyed on identity so a newer incarnation
		// is never harmed.
		c.Probe()
		t.prefixes.CompareAndDelete(p.Encode(), tn)
	}
	return left
}

// Validate sweeps the quiescent trie and verifies it exactly mirrors the
// skiplist's top level: every proper prefix of every top-level key is
// present, pointers[0]/pointers[1] are the largest/smallest top-level keys
// of the respective subtrees, and no stale prefixes remain. It must only
// be called while no operations are in flight.
func (t *Trie) Validate() error {
	// Collect top-level keys.
	var tops []uint64
	for n := t.list.Head(); n != nil; {
		next, marked := n.Next()
		if n.IsData() && !marked {
			tops = append(tops, n.Key())
		}
		n = next
	}
	type bound struct {
		max0, min1 uint64
		has0, has1 bool
	}
	want := make(map[uint64]*bound)
	for _, k := range tops {
		for l := 0; l < int(t.width); l++ {
			p := uintbits.PrefixOf(k, uint8(l), t.width)
			d := uintbits.Bit(k, uint8(l), t.width)
			b := want[p.Encode()]
			if b == nil {
				b = &bound{}
				want[p.Encode()] = b
			}
			if d == 0 {
				if !b.has0 || k > b.max0 {
					b.max0, b.has0 = k, true
				}
			} else {
				if !b.has1 || k < b.min1 {
					b.min1, b.has1 = k, true
				}
			}
		}
	}
	seen := 0
	var err error
	t.prefixes.Range(func(enc uint64, tn *treeNode) bool {
		b, ok := want[enc]
		if !ok {
			pair := tn.pointers.Load()
			desc := func(n *skiplist.Node) string {
				if n == nil {
					return "nil"
				}
				return fmt.Sprintf("key=%d marked=%v", n.Key(), n.Marked())
			}
			err = fmt.Errorf("trie holds stale prefix %x (zero: %s, one: %s)",
				enc, desc(pair.Zero), desc(pair.One))
			return false
		}
		seen++
		pair := tn.pointers.Load()
		if b.has0 != (pair.Zero != nil) {
			err = fmt.Errorf("prefix %x: 0-pointer presence = %v, want %v", enc, pair.Zero != nil, b.has0)
			return false
		}
		if b.has1 != (pair.One != nil) {
			err = fmt.Errorf("prefix %x: 1-pointer presence = %v, want %v", enc, pair.One != nil, b.has1)
			return false
		}
		if b.has0 && (pair.Zero.Marked() || pair.Zero.Key() != b.max0) {
			err = fmt.Errorf("prefix %x: 0-pointer key = %d (marked=%v), want %d", enc, pair.Zero.Key(), pair.Zero.Marked(), b.max0)
			return false
		}
		if b.has1 && (pair.One.Marked() || pair.One.Key() != b.min1) {
			err = fmt.Errorf("prefix %x: 1-pointer key = %d (marked=%v), want %d", enc, pair.One.Key(), pair.One.Marked(), b.min1)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	if seen != len(want) {
		return fmt.Errorf("trie holds %d prefixes, want %d", seen, len(want))
	}
	return nil
}
