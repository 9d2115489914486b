// Package skiplist implements the SkipTrie paper's truncated lock-free
// skiplist (Section 2) together with the doubly-linked list over its top
// level (Section 3).
//
// The skiplist has a fixed number of levels — O(log log u) of them, chosen
// by the universe width — rather than O(log m). Each key occupies a tower
// of nodes linked by down pointers; the level-0 node is the tower's root
// and carries the stop flag that freezes the tower when a delete begins
// (Section 2). A back pointer, set before a node is marked, lets
// concurrent operations recover when a node is deleted from under their
// feet (Fomitchev-Ruppert).
//
// # Mark bits
//
// Each next field is the paper's (next, marked) word (internal/link): a
// delete marks its victim by setting the low bit of the victim's next
// with one CAS, and a later search unlinks the victim with one CAS on
// the predecessor's next. Every CAS on a next field expects an unmarked
// word, so a marked node's next never changes again: a CAS expecting
// left.next == right fails once left is marked. Nodes are never
// re-linked once unlinked and the garbage collector keeps reachable
// addresses from being reused, so comparing pointers is enough. A hop is
// one dependent load, and whether a node is marked is read from its own
// next word, so a level's walk reads no line past the node it stops at.
// No link update allocates: an insert allocates its nodes, a delete
// nothing.
//
// Top-level nodes additionally carry a prev pointer forming a doubly-linked
// list. Linearizability relies only on the forward direction; prev pointers
// are guides (Section 3). They are set by FixPrev with a plain CAS to a
// predecessor that a search found unmarked and adjacent, and an update
// that has gone stale by the time it lands is repaired again (setPrev):
// the paper's DCSS, which would guard the swap with "left.next is still
// the node", only duplicates that repair, and the paper proves the
// structure linearizable and lock-free with the guard dropped. The ready
// flag records that a node's insertion into the doubly-linked list
// finished. Both repair disciplines discussed
// in the paper's introduction are implemented: the default relaxed mode
// (option 2, the paper's choice — transient backward gaps are tolerated and
// repaired by the in-flight insert) and the eager-helping mode (option 1 —
// an insert recursively helps its successors before declaring itself
// ready), selectable per list for the T8 ablation.
//
// The package is split along the value axis. Node and Topology are
// value-free: they carry only the paper's state (keys, towers, next
// links, back/prev pointers) and implement every navigation and repair
// algorithm, so code that only routes through the structure — notably the
// x-fast trie — compiles once, independent of any value type. List[V]
// embeds a Topology and adds the insert path (list.go).
//
// # Layout
//
// A Node is one 64-byte cache line on 64-bit targets, and its first 32
// bytes hold what a hop and a liveness check read: key, next, kind,
// level, flags and dead. Go places a size class's objects at multiples
// of the class size in page-aligned spans, so sentinels and each
// tower's slab of h−1 Nodes start on a line boundary. A tower's
// level-0 node leads its root allocation: a value-free rootNode header
// (the Node, then the birth stamp only pinned views read) and, unless V
// is zero-width as in set form, an unboxed value slot of type V and a
// pointer to the value's history, which only an overwrite under a live
// pin allocates (dataNode). dataNode[int] is 96 bytes and starts at 0 or
// 32 mod 64, so every hop reads one line; the set form's bare rootNode
// (80-byte class) and dataNode[[]byte] (112) put the hop fields across
// two lines in one slot of four. An insert allocates the root and the
// slab; a delete allocates nothing.
package skiplist

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"skiptrie/internal/link"
	"skiptrie/internal/stats"
)

// MaxLevels bounds the number of levels (universe width <= 64 gives
// ceil(log2 64)+1 = 7).
const MaxLevels = 8

// RepairMode selects how top-level prev pointers are maintained
// (Section 1's option (1) vs option (2)).
type RepairMode int8

const (
	// RepairRelaxed is the paper's choice: an insert fixes only its own
	// node's prev pointer; transient backward gaps are allowed and are
	// charged to the overlapping-interval contention.
	RepairRelaxed RepairMode = iota
	// RepairEager is the paper's option (1): before a top-level insert
	// completes it helps its successor chain become ready and re-points
	// each successor's prev, trading extra write contention for point
	// contention bounds.
	RepairEager
)

type kind int8

const (
	kindHead kind = iota - 1 // sorts before every key
	kindData                 // an actual key
	kindTail                 // sorts after every key
)

// Node is one level of one tower: the value-free topology header every
// layer above (the x-fast trie) operates on. Fields key, kind, level,
// root and down are immutable after construction. It holds only what a
// hop, a teardown or the live read path reads: 64 bytes on 64-bit
// targets, the first 32 of them the fields a hop and a liveness check
// read (package doc, Layout). A data root's birth stamp is in its
// rootNode header.
type Node struct {
	key uint64
	// next is the successor on this level, marked (and frozen) once the
	// node is deleted.
	next  link.Link[Node]
	kind  kind
	level int8
	flags atomic.Uint32 // flagStop and flagReady, each set once by Or
	// dead is the epoch a delete committed the tower at (0 while alive;
	// data roots only), set by the CAS that linearizes the delete (epoch.go).
	dead atomic.Uint64

	root *Node                // level-0 node of this tower (self at level 0)
	down *Node                // next lower tower node; nil at level 0
	back atomic.Pointer[Node] // recovery hint; points to a strictly smaller node
	prev atomic.Pointer[Node] // top level only: backward guide pointer (Section 3)
}

// Node flags.
const (
	flagStop  uint32 = 1 << iota // root: freezes tower raising (Section 2)
	flagReady                    // top level: doubly-linked insertion finished
)

// has reports whether flag f is set.
func (n *Node) has(f uint32) bool { return n.flags.Load()&f != 0 }

// rootNode is a data tower's level-0 node: the Node, then born, the epoch
// current when it was linked. born is written before the publishing CAS,
// so every reader that reached the node through a next load observes it.
// The set form allocates it bare, 72 bytes in the 80-byte size class;
// other lists lead a dataNode with it.
type rootNode struct {
	n    Node
	born uint64
}

// rootOf recovers the rootNode of a data-kind root by the first-field cast
// dataOf makes; other nodes are plain Nodes and must never be passed.
func rootOf(n *Node) *rootNode { return (*rootNode)(unsafe.Pointer(n)) }

// Key returns the node's key. Meaningful only for data nodes.
func (n *Node) Key() uint64 { return n.key }

// IsData reports whether the node carries a key (not a sentinel).
func (n *Node) IsData() bool { return n.kind == kindData }

// IsHead reports whether the node is a head sentinel.
func (n *Node) IsHead() bool { return n.kind == kindHead }

// IsTail reports whether the node is a tail sentinel.
func (n *Node) IsTail() bool { return n.kind == kindTail }

// Level returns the level this node lives on (0 = bottom).
func (n *Node) Level() int { return int(n.level) }

// Marked reports whether the node is logically deleted.
func (n *Node) Marked() bool {
	_, marked := n.next.Load()
	return marked
}

// Next returns the node's successor and whether the node is marked; a
// marked node's successor is frozen. The tail's successor is nil.
func (n *Node) Next() (*Node, bool) { return n.next.Load() }

// succ returns the node's successor, marked or not.
func (n *Node) succ() *Node {
	next, _ := n.next.Load()
	return next
}

// IsDead reports whether a delete has committed the node's tower. A
// dead node may remain physically linked (unmarked) while a pinned
// epoch can still see it; every live-view read must treat it as absent.
func (n *Node) IsDead() bool { return n.root.dead.Load() != 0 }

// VisibleAt reports whether the node's key was present at epoch p:
// linked at or before p and not yet dead at p. Sentinels are never
// visible.
func (n *Node) VisibleAt(p uint64) bool {
	if n.kind != kindData {
		return false
	}
	r := n.root
	if rootOf(r).born > p {
		return false
	}
	d := r.dead.Load()
	return d == 0 || d > p
}

// Prev returns the node's backward guide pointer (top level only).
func (n *Node) Prev() *Node { return n.prev.Load() }

// Back returns the node's recovery pointer.
func (n *Node) Back() *Node { return n.back.Load() }

// target identifies a search position: either a key or the tail sentinel.
type target struct {
	key  uint64
	tail bool
}

// before reports whether n sorts strictly before t.
func (n *Node) before(t target) bool {
	switch n.kind {
	case kindHead:
		return true
	case kindTail:
		return false
	default:
		return t.tail || n.key < t.key
	}
}

// at reports whether n sorts exactly at t.
func (n *Node) at(t target) bool {
	if t.tail {
		return n.kind == kindTail
	}
	return n.kind == kindData && n.key == t.key
}

// Topology is the value-free skeleton of a truncated lock-free skiplist:
// the level sentinels plus every navigation, deletion and repair algorithm
// of the paper. It is the surface the x-fast trie operates on; all List[V]
// instantiations share this one concrete type, so the trie (and anything
// else that only routes through the structure) compiles exactly once.
type Topology struct {
	levels int
	repair RepairMode
	heads  [MaxLevels]*Node
	tails  [MaxLevels]*Node
	length atomic.Int64
	nodes  atomic.Int64 // total live tower nodes, for space accounting

	// Striped tower-height RNG (rng.go): rngSeed is immutable after
	// init; rngCtr orders lazy stripe seeding; rng holds the padded
	// per-stripe xorshift states.
	rngSeed uint64
	rngCtr  atomic.Uint64
	rng     [rngStripes]rngStripe

	// Epoch clock and snapshot-pin registry (epoch.go). epoch starts at
	// 1 and is bumped only by PinEpoch; minPin caches the smallest
	// pinned epoch (noPin when none) so update paths decide retention
	// with one atomic load; pins (guarded by pinMu) refcounts each
	// pinned epoch; retired (guarded by retiredMu) holds dead level-0
	// nodes kept on the bottom list for pinned readers.
	epoch      atomic.Uint64
	minPin     atomic.Uint64
	pinCount   atomic.Int64
	committing [commitStripes]commitStripe // stamping ops mid-commit (see epoch.go)
	pinMu      sync.Mutex
	pins       map[uint64]int
	pinTimes   map[uint64]int64 // epoch -> monotonic ns of its first pin (pinMu)
	retiredMu  sync.Mutex
	retired    []*Node

	// trace is the optional lifecycle-event sink (Config.Trace); nil
	// disables every event at the cost of one branch per lifecycle
	// action. Point-operation hot paths never consult it.
	trace *stats.Trace

	// Change journal (journal.go): per-stripe segment chains of
	// (key, epoch) entries appended by stamping commits while pins are
	// live, the index that makes snapshot diffs O(changed keys).
	journal [journalStripes]jstripe
}

// Config configures a List.
type Config struct {
	// Levels is the number of skiplist levels (use uintbits.Levels).
	Levels int
	// Repair selects the prev-pointer maintenance discipline.
	Repair RepairMode
	// Seed seeds tower-height randomness; 0 selects a fixed default.
	// Height draws come from generator states striped by key hash
	// (rng.go), so for single-goroutine use the seed and the sequence of
	// inserted keys fix the drawn heights — and therefore the
	// structure's shape; concurrent writers interleave stripe state
	// nondeterministically.
	Seed uint64
	// Trace, when non-nil, receives lifecycle events (pin
	// acquire/release, retained-node sweeps, journal truncation); see
	// stats.Trace for the callback contract.
	Trace *stats.Trace
}

// init builds the sentinel towers. Levels outside [2, MaxLevels] are
// clamped.
func (l *Topology) init(cfg Config) {
	lv := cfg.Levels
	if lv < 2 {
		lv = 2
	}
	if lv > MaxLevels {
		lv = MaxLevels
	}
	l.levels = lv
	l.repair = cfg.Repair
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x5ee0_70_1e_5eed
	}
	l.rngSeed = seed
	l.trace = cfg.Trace
	l.epoch.Store(1)
	l.minPin.Store(noPin)
	for i := 0; i < lv; i++ {
		h := &Node{kind: kindHead, level: int8(i)}
		t := &Node{kind: kindTail, level: int8(i)}
		h.root, t.root = h, t
		if i > 0 {
			h.down = l.heads[i-1]
			t.down = l.tails[i-1]
		}
		h.next.Store(t)
		h.back.Store(h)
		t.back.Store(h)
		h.flags.Store(flagReady)
		t.flags.Store(flagReady)
		t.prev.Store(h)
		l.heads[i] = h
		l.tails[i] = t
	}
}

// Levels returns the number of levels.
func (l *Topology) Levels() int { return l.levels }

// Top returns the index of the top level.
func (l *Topology) Top() int { return l.levels - 1 }

// Head returns the top-level head sentinel (the fallback starting point
// for searches when the x-fast trie yields no better anchor).
func (l *Topology) Head() *Node { return l.heads[l.levels-1] }

// Len returns the number of keys (approximate under concurrency).
func (l *Topology) Len() int { return int(l.length.Load()) }

// NodeCount returns the number of live tower nodes across all levels
// (approximate under concurrency), for the T6 space experiment.
func (l *Topology) NodeCount() int { return int(l.nodes.Load()) }

// Bracket is the result of a list search at one level: Left < target <=
// Right, Left.next was Right (so Left was unmarked) when it was read, and
// Right was unmarked when its next was read.
type Bracket struct {
	Left  *Node
	Right *Node
}

// search is the paper's listSearch(x, start): walk level nodes from start,
// unlinking marked nodes it passes, and return a bracket around t. start
// may be marked or even past t; recovery uses back pointers (which always
// decrease strictly, so recovery terminates at the level head). Whether
// curr is marked is read from curr's own next word, so the walk reads no
// node past the one it returns as Right.
func (l *Topology) search(t target, start *Node, c *stats.Op) Bracket {
	left := start
	for {
		// Re-anchor: left must be unmarked and strictly before t.
		for !left.before(t) {
			left = left.back.Load()
			c.Hop()
		}
		curr, marked := left.next.Load()
		if marked {
			left = left.back.Load()
			c.Hop()
			continue
		}
	walk:
		for {
			c.Hop()
			next, marked := curr.next.Load()
			if marked {
				// Unlink curr; on contention re-anchor.
				c.IncCAS()
				if !left.next.CompareAndSwap(curr, next) {
					break walk
				}
				curr = next
				continue
			}
			if curr.before(t) {
				left, curr = curr, next
				continue
			}
			return Bracket{Left: left, Right: curr}
		}
	}
}

// SearchTop runs the paper's listSearch for key on the top level starting
// from start (nil means the head sentinel).
func (l *Topology) SearchTop(key uint64, start *Node, c *stats.Op) Bracket {
	if start == nil {
		start = l.Head()
	}
	return l.search(target{key: key}, start, c)
}

// descend runs the descending listSearch chain of the paper's skiplist
// traversal: starting from a top-level node (or head), locate the bracket
// of key on every level. It fills lefts[level] and returns the level-0
// bracket.
//
// Entries already in lefts are a Hint's cached brackets (hint.go): a
// level's search starts from its entry when the entry sorts after the
// node the down-chain reached and before key, and from the down-chain
// node otherwise. With lefts all nil this is the plain descent.
func (l *Topology) descend(key uint64, start *Node, lefts *[MaxLevels]*Node, c *stats.Op) Bracket {
	if start == nil {
		start = l.Head()
	}
	t := target{key: key}
	node := start
	var br Bracket
	for lv := l.levels - 1; lv >= 0; lv-- {
		if h := lefts[lv]; h != nil && h.kind == kindData && h.key < key &&
			(node.kind == kindHead || node.key < h.key) {
			node = h
		}
		br = l.search(t, node, c)
		lefts[lv] = br.Left
		if lv > 0 {
			node = br.Left.down
		}
	}
	return br
}

// PredecessorBracket descends from start (a top-level node with key <=
// target, typically produced by the x-fast trie, or nil for the head) and
// returns the level-0 bracket of key: Left is the strict predecessor,
// Right is the first node >= key.
func (l *Topology) PredecessorBracket(key uint64, start *Node, c *stats.Op) Bracket {
	var lefts [MaxLevels]*Node
	return l.descend(key, start, &lefts, c)
}

// LastBracket descends to the level-0 bracket of the tail: Left is the
// largest key in the list (or the head sentinel if empty).
func (l *Topology) LastBracket(start *Node, c *stats.Op) Bracket {
	if start == nil {
		start = l.Head()
	}
	t := target{tail: true}
	node := start
	var br Bracket
	for lv := l.levels - 1; lv >= 0; lv-- {
		br = l.search(t, node, c)
		if lv > 0 {
			node = br.Left.down
		}
	}
	return br
}

// FixPrev is the paper's Algorithm 1: repeatedly locate node's predecessor
// left on the top level and point node.prev at it (setPrev), until success
// or node is marked. In the default relaxed mode the node becomes ready on
// exit (its prev has been set, or the node is logically deleted and its
// prev no longer matters); in eager mode readiness is owned by
// makeReadyChain, whose option-1 semantics are "my successor's prev points
// back at me".
func (l *Topology) FixPrev(pred, node *Node, c *stats.Op) {
	if pred == nil {
		pred = l.Head()
	}
	t := node.target()
	for !node.Marked() {
		br := l.search(t, pred, c)
		if br.Right == node && l.setPrev(node, br.Left, c) {
			break
		}
	}
	if l.repair == RepairRelaxed {
		node.flags.Or(flagReady)
	}
}

// setPrev points node.prev at left, which a search found unmarked and
// adjacent to node, by a plain CAS against the pointer it loaded. It is
// the single prev-update step of FixPrev, fixPrevOf and makeReadyChain.
// An update found stale once it has landed is repaired again: the delete
// or insert that made it stale may have finished its own repair of
// node.prev before the update landed. The CAS compares pointers, so
// node.prev may have gone A → B → A between the load and the CAS; that
// history is harmless, because the CAS then lands exactly as it would
// have had node.prev stayed A: it installs a predecessor that was
// adjacent when it was searched, and the re-check repairs it like any
// other stale landing.
func (l *Topology) setPrev(node, left *Node, c *stats.Op) bool {
	hook("prev.before-set", left)
	old := node.prev.Load()
	hook("prev.before-cas", left)
	c.IncCAS()
	ok := node.prev.CompareAndSwap(old, left)
	if ok {
		// A marked left whose frozen successor is node is no longer
		// adjacent either.
		if next, marked := left.next.Load(); marked || next != node {
			l.fixPrevOf(node, l.search(node.target(), left, c), c)
		}
	}
	return ok
}

// target returns the search position of a data or tail node.
func (n *Node) target() target {
	if n.kind == kindTail {
		return target{tail: true}
	}
	return target{key: n.key}
}

// makeReadyChain implements the eager-helping discipline (Section 1,
// option (1)): to declare node ready, first help its successor become
// ready, then point the successor's prev back at node. Helping only moves
// rightward, so there is no deadlock; the chain length is bounded by the
// number of concurrent unfinished inserts.
func (l *Topology) makeReadyChain(node *Node, c *stats.Op) {
	// Collect the chain of not-ready successors, then repair backwards.
	var chain [64]*Node
	n := 0
	cur := node
	for cur.kind == kindData && n < len(chain) {
		chain[n] = cur
		n++
		next := cur.succ()
		if next == nil || next.has(flagReady) {
			break
		}
		cur = next
	}
	for i := n - 1; i >= 0; i-- {
		u := chain[i]
		// Set u.next.prev = u, then u.ready.
		for {
			v, marked := u.Next()
			if marked || v == nil || v.prev.Load() == u || l.setPrev(v, u, c) || u.Marked() {
				break
			}
		}
		u.flags.Or(flagReady)
	}
}

// DeleteResult reports what Delete did.
type DeleteResult struct {
	Deleted bool
	Root    *Node // the level-0 node this call logically deleted
	// Top is the top-level tower node, if the tower reached the top.
	// Since the dead-epoch CAS made teardown single-owner, only the
	// winning delete (Deleted=true) can carry it, but callers should
	// keep processing Top regardless of Deleted — the contract is "walk
	// whatever is reported", and a duplicate walk is harmless.
	Top *Node
}

// Delete removes key from the list, starting the descent from start (nil
// for head). It implements the paper's delete with an epoch-stamped
// commit: set the root's stop flag, CAS the root's dead epoch from 0 —
// the linearization point, making the winner the teardown's single
// owner — then tear tower nodes down top-down (removeLevel) and finally
// dispose of the root: removed immediately when no pinned epoch can see
// it (the paper's physical removal, and the only path before the first
// snapshot is ever taken), or retained unmarked on the bottom list for
// pinned readers and reclaimed by the epoch-release sweep (epoch.go).
func (l *Topology) Delete(key uint64, start *Node, c *stats.Op) DeleteResult {
	t := target{key: key}
	var lefts [MaxLevels]*Node
	br := l.descend(key, start, &lefts, c)
	if !br.Right.at(t) || br.Right.dead.Load() != 0 {
		// Absent, or already logically deleted and awaiting reclamation
		// (the newest node of a same-key run is the only live candidate).
		return DeleteResult{}
	}
	root := br.Right // level-0 node
	left0 := br.Left

	// Freeze the tower so inserts stop raising it (Section 2).
	root.flags.Or(flagStop)
	hook("delete.after-stop", root)

	// Commit: stamp the dead epoch. This CAS is the linearization point
	// of the delete, and its winner solely owns the rest of the
	// teardown — a losing racer returns without touching the tower, so
	// the PR 2 orphaned-top-node window cannot recur. The epoch sample
	// and the CAS are bracketed by the commit counter so a concurrent
	// PinEpoch cannot return between them and hand out a pin this
	// stale stamp would incorrectly hide the node from (epoch.go).
	commit := l.commitEnter(key)
	dead := l.epoch.Load()
	hook("delete.committing", root)
	c.IncCAS()
	won := root.dead.CompareAndSwap(0, dead)
	if won {
		l.journalMark(key, dead)
	}
	commit.Add(-1)
	if !won {
		return DeleteResult{}
	}
	l.length.Add(-1)

	// Tear tower nodes down top-down. Re-scan every level: a raise that
	// squeaked in before the stop flag is caught here because we only act
	// on nodes whose root is ours (a raise landing after this scan tears
	// its level down itself; see insertWithHeight).
	var topNode *Node
	for lv := l.levels - 1; lv >= 1; lv-- {
		b := l.search(t, lefts[lv], c)
		if b.Right.at(t) && b.Right.root == root {
			if lv == l.levels-1 {
				topNode = b.Right
			}
			l.removeLevel(b.Right, b.Left, c)
		}
	}

	// Dispose of the root: immediate removal, or retention for pinned
	// epochs (see epoch.go for why the minPin check is race-free against
	// concurrent pins). After filing the node for retention, re-check:
	// if the last pin released between the decision and the append, its
	// sweep ran over a list that did not yet hold this node, and nothing
	// else would reclaim it until some future release — sweep again
	// ourselves.
	if l.minPin.Load() < dead {
		l.retiredMu.Lock()
		l.retired = append(l.retired, root)
		l.retiredMu.Unlock()
		if l.minPin.Load() >= dead {
			l.sweepRetired(c)
		}
	} else {
		l.removeLevel(root, left0, c)
	}
	return DeleteResult{Deleted: true, Root: root, Top: topNode}
}

// removeLevel tears down tower node n, found right of left on its level:
// mark it, and unlink it with a cleanup search if this call marked it.
// For a top-level node it also performs the paper's toplevelDelete
// duties: finish the node's doubly-linked insertion first, and repair
// its successor's prev pointer afterwards. Delete, the epoch sweep and an
// insert whose raise landed on a stopped tower all tear levels down here.
func (l *Topology) removeLevel(n, left *Node, c *stats.Op) {
	t := n.target()
	top := int(n.level) == l.levels-1
	if top && !n.has(flagReady) {
		l.FixPrev(left, n, c)
	}
	if l.markNode(n, left, c) {
		l.search(t, left, c)
		l.nodes.Add(-1)
	}
	if top {
		l.repairPrevAfterDelete(t, left, c)
	}
}

// markNode sets n.back to the given hint and marks n by setting the mark
// bit of n.next with a CAS, returning true if this call's CAS performed
// the marking. It allocates nothing.
func (l *Topology) markNode(n, backHint *Node, c *stats.Op) bool {
	for {
		next, marked := n.next.Load()
		if marked {
			return false
		}
		hook("delete.before-mark", n)
		n.back.Store(backHint)
		c.IncCAS()
		if n.next.Mark(next) {
			return true
		}
	}
}

// repairSuccessorPrev points the prev of node's current successor back at
// node (the second half of a top-level insert). If node is deleted
// meanwhile, the deleting operation takes over the repair (Algorithm 2),
// so we simply stop.
func (l *Topology) repairSuccessorPrev(node *Node, c *stats.Op) {
	for {
		z, marked := node.Next()
		if marked {
			return
		}
		l.fixPrevOf(z, l.search(z.target(), node, c), c)
		if !z.Marked() {
			return
		}
	}
}

// repairPrevAfterDelete is the tail of the paper's Algorithm 2: after a
// top-level node is deleted, find its successor and fix that successor's
// prev so it no longer points behind the deleted node; retry if the
// successor itself got marked meanwhile.
func (l *Topology) repairPrevAfterDelete(t target, hint *Node, c *stats.Op) {
	for {
		br := l.search(t, hint, c)
		l.fixPrevOf(br.Right, br, c)
		if !br.Right.Marked() {
			return
		}
	}
}

// fixPrevOf is FixPrev when the caller already holds a bracket whose Right
// is the node; it gives up once the node is no longer right of the
// bracket's Left.
func (l *Topology) fixPrevOf(node *Node, br Bracket, c *stats.Op) {
	for !node.Marked() && br.Right == node && !l.setPrev(node, br.Left, c) {
		br = l.search(node.target(), br.Left, c)
	}
}

// Contains reports whether key is present, descending from start.
func (l *Topology) Contains(key uint64, start *Node, c *stats.Op) bool {
	_, ok := l.Find(key, start, c)
	return ok
}

// Find returns the live level-0 node holding key, if present (unmarked
// and undead at witness time). Dead nodes retained for pinned epochs
// are skipped: they sit behind any live incarnation in the same-key
// run, so the walk over the run terminates at the first key change.
func (l *Topology) Find(key uint64, start *Node, c *stats.Op) (*Node, bool) {
	br := l.PredecessorBracket(key, start, c)
	return l.FindVisible(br.Right, key, 0, c)
}

// FindVisible walks the same-key run starting at n (a bracket's Right)
// for a node holding exactly key that is visible at epoch at — or, when
// at is 0, live (unmarked with no dead stamp). Runs are newest-first
// and incarnations' [born, dead) intervals are disjoint, so at most one
// node qualifies.
func (l *Topology) FindVisible(n *Node, key uint64, at uint64, c *stats.Op) (*Node, bool) {
	t := target{key: key}
	for n.at(t) {
		if admitted(n, at) {
			return n, true
		}
		n = n.succ()
		c.Hop()
	}
	return nil, false
}

// admitted reports whether the view at epoch at (0 = live) includes
// the level-0 data node n: unmarked and alive for the live view,
// visible at the pinned epoch for a snapshot view (a marked node is
// never visible to any live pin — it was reclaimed only once no pin
// could see it).
func admitted(n *Node, at uint64) bool {
	if n.kind != kindData || n.Marked() {
		return false
	}
	if at != 0 {
		return n.VisibleAt(at)
	}
	return n.dead.Load() == 0
}

// NextVisible walks forward from n (a bracket's Right) to the first
// data node the view at epoch at admits (0 = live), reporting false at
// the tail. Marked nodes are traversed through their frozen next
// chains; out-of-view retained nodes are stepped over in place.
func (l *Topology) NextVisible(n *Node, at uint64, c *stats.Op) (*Node, bool) {
	for {
		if n.kind == kindTail {
			return nil, false
		}
		if admitted(n, at) {
			return n, true
		}
		c.Hop()
		n = n.succ()
	}
}

// PrevVisible retreats from n (a bracket's Left, unmarked at witness
// time) to the nearest data node at or before it that the view at
// epoch at admits (0 = live), reporting false at the head. A search's
// Left rests on the *oldest* incarnation of a same-key run, so when
// that node is out of view the run is re-probed from its head — the
// incarnation the view admits, if any, sits in front — before the key
// is given up on. The bottom list is singly linked, so each rejected
// key costs one predecessor re-search; retained runs are bounded by
// the churn during the lifetime of the pins retaining them.
func (l *Topology) PrevVisible(n *Node, at uint64, c *stats.Op) (*Node, bool) {
	for {
		if n.kind != kindData {
			return nil, false
		}
		if admitted(n, at) {
			return n, true
		}
		// Re-probe locally: a level-0 search anchored at n re-anchors
		// through back pointers, avoiding the full head descent a
		// PredecessorBracket would pay per rejected key.
		br := l.search(target{key: n.key}, n, c)
		if m, ok := l.FindVisible(br.Right, n.key, at, c); ok {
			return m, true
		}
		n = br.Left
	}
}

// NextLive and PrevLive are the live-view (at = 0) forms, the shape
// the point-query paths use.
func (l *Topology) NextLive(n *Node, c *stats.Op) (*Node, bool) { return l.NextVisible(n, 0, c) }
func (l *Topology) PrevLive(n *Node, c *stats.Op) (*Node, bool) { return l.PrevVisible(n, 0, c) }
