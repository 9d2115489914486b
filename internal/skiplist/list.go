package skiplist

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"skiptrie/internal/stats"
)

// List is a truncated lock-free skiplist mapping uint64 keys to unboxed
// values of type V. It embeds the value-free Topology — which implements
// every navigation, deletion and repair algorithm of the paper — and adds
// the insert path plus value access. The set form is List[struct{}], whose
// value slots are zero-width.
type List[V any] struct {
	Topology

	// pool recycles root allocations that were prepared by an
	// insert but never published: the insert lost its race to a
	// concurrent insert of the same key and returned Existing instead.
	// Under write contention on overlapping key sets this is the
	// allocation the GC would otherwise eat per lost race.
	//
	// Published nodes are deliberately NOT recycled — not on delete,
	// and not from the epoch-release sweep, even though the sweep
	// proves no pinned reader can still need the node's value. Proving
	// a node invisible is not proving it unreachable: live nodes hold
	// back pointers (written once, at insert and at markNode) that may
	// reference a retired node indefinitely as a recovery tombstone,
	// and searches recover through those pointers relying on the
	// retired node's key and frozen next link staying exactly what they
	// were. No grace period bounds that reachability, so reusing the
	// allocation would change a key out from under a future recovery —
	// the classic ABA corruption, here breaking search termination
	// (back pointers must strictly decrease). The GC is the only safe
	// reclaimer for published nodes; what the pool removes is the churn
	// from nodes that never entered the structure at all.
	pool sync.Pool
}

// newRoot returns a level-0 root holding val, ready for stamping: either
// a recycled never-published allocation (scrubbed by recycleRoot) or a
// fresh one — a dataNode[V], or a bare rootNode in set form, which is
// never converted to a dataNode. The caller must set every header field
// it relies on — key, kind, root, born — exactly as it would on a fresh
// allocation; nothing is inherited from a previous use.
func (l *List[V]) newRoot(val V) *rootNode {
	r, _ := l.pool.Get().(*rootNode)
	if unsafe.Sizeof(val) == 0 {
		if r == nil {
			r = new(rootNode)
		}
		return r
	}
	if r == nil {
		r = &new(dataNode[V]).rootNode
	}
	dataOf[V](&r.n).val = val
	return r
}

// recycleRoot returns a root allocated by newRoot to the pool. It must
// only be called on roots that were never published: once the linking
// CAS has landed, concurrent operations hold references to the node
// forever (see the pool field comment). The scrub clears every
// reference the insert attempt wrote (the next and back pointers, the
// value), so a pooled node retains nothing; the birth stamp and
// immutable-by-convention header fields are re-stamped in full by the
// next insert that draws it.
func (l *List[V]) recycleRoot(r *rootNode) {
	var zero V
	if unsafe.Sizeof(zero) != 0 {
		dataOf[V](&r.n).val = zero
	}
	r.born = 0
	r.n.next.Store(nil)
	r.n.back.Store(nil)
	l.pool.Put(r)
}

// New returns an empty list. Levels outside [2, MaxLevels] are clamped.
func New[V any](cfg Config) *List[V] {
	l := &List[V]{}
	l.Topology.init(cfg)
	return l
}

// Topo returns the list's value-free topology, the surface the x-fast
// trie indexes. All List[V] instantiations share the one Topology type.
func (l *List[V]) Topo() *Topology { return &l.Topology }

// dataNode is the allocation unit of a level-0 data node: the value-free
// rootNode header followed by the list's unboxed value slot and a pointer
// to the value's history. The header must stay the first field — value
// access (dataOf) and the birth stamp (rootOf) convert the *Node interior
// pointer back to the containing allocation, which is only valid while
// they share an address. dataNode[int] is 96 bytes, in the 96-byte size
// class, and dataNode[[]byte] 112. The set form allocates a bare rootNode
// instead and never converts it to a dataNode: the conversion would claim
// more bytes than the allocation has (checkptr, on under -race, rejects
// it), so every zero-width check comes before dataOf.
//
// The value is published by the next-pointer CAS that links the node into
// level 0 (a release store that every reader acquires through its own
// next-pointer loads), so the initial write needs no further
// synchronization.
// In-place updates (Map.Store on an existing key) cannot ride that
// publication; they are guarded by vmu, a word-sized spinlock. The
// critical section is a single value copy, readers and writers take it
// symmetrically, and the set form never touches it (zero-width values skip
// value access entirely), so the paper's structural operations remain
// lock-free; only key-value access on one key serializes with other value
// access to that same key — including reader-reader, so hot-key value
// reads do contend on this word. A seqlock would let readers scale, but
// its optimistic value copy is a data race under the Go memory model for
// arbitrary V (the race detector rejects it); the race-free lock-free
// alternative, immutable cells behind an atomic pointer, reallocates on
// every overwrite, which is the boxing cost this layout exists to remove.
type dataNode[V any] struct {
	rootNode
	vmu  atomic.Uint32 // value spinlock: 0 free, 1 held
	val  V
	hist *history[V] // guarded by vmu; nil: val's stamp is born
}

// history is what a pinned read of an overwritten value needs: the epoch
// val became current and the superseded versions still selectable by a
// pinned epoch, ascending by from. Only an overwrite under a live pin
// allocates it, with that overwrite's superseded version held inline in
// first, so the record is one object; an overwrite that no live or future
// pin can see behind drops it again. While it is nil, val's stamp is the
// node's born epoch: an overwrite made with no pin live orders before
// every live and future pin, so no pinned view or diff window can tell
// the two stamps apart, and the unpinned write path pays nothing beyond
// one atomic load.
type history[V any] struct {
	from  uint64
	old   []version[V]
	first [1]version[V]
}

// version is one superseded value: val was current from epoch from
// until the from of the next version (or history.from for the last).
type version[V any] struct {
	from uint64
	val  V
}

// dataOf recovers the allocation containing a level-0 data node's header.
// n must be a data-kind root created by List[V].Insert/Upsert; sentinels
// and tower nodes above level 0 are plain Nodes and must never be passed.
func dataOf[V any](n *Node) *dataNode[V] {
	return (*dataNode[V])(unsafe.Pointer(n))
}

func (d *dataNode[V]) lock() {
	spins := 0
	for !d.vmu.CompareAndSwap(0, 1) {
		if spins++; spins%32 == 0 {
			runtime.Gosched()
		}
	}
}

func (d *dataNode[V]) unlock() { d.vmu.Store(0) }

// ValueOf returns the value stored at n's tower root. n may be any node of
// a tower created by this list (any level); sentinel nodes yield the zero
// value.
func (l *List[V]) ValueOf(n *Node) V {
	var v V
	r := n.root
	if r == nil || r.kind != kindData || unsafe.Sizeof(v) == 0 {
		return v // the set form has nothing to read, nothing to lock
	}
	d := dataOf[V](r)
	d.lock()
	v = d.val
	d.unlock()
	return v
}

// SetValue overwrites the value stored at n's tower root. Sentinel nodes
// are ignored. While a snapshot pin is live the superseded value is
// pushed onto the node's history, stamped with the epoch it was current
// from, so pinned readers keep reading the value that was current at
// their epoch; versions no remaining pin can select are pruned on the
// next overwrite.
func (l *List[V]) SetValue(n *Node, v V) {
	r := n.root
	if r == nil || r.kind != kindData || unsafe.Sizeof(v) == 0 {
		return
	}
	d := dataOf[V](r)
	// The epoch is sampled under both the value lock — so a delayed
	// writer cannot regress the stamp below a newer writer's and
	// silently drop that version from the history — and the commit
	// counter, so a concurrently-registered pin is not handed out
	// until this stamp's write has landed (epoch.go).
	commit := l.commitEnter(r.key)
	d.lock()
	e := l.epoch.Load()
	// A pin P selects the last version stamped at or before P. Every pin
	// below e registered before the clock passed it, so it is visible in
	// minPin (noPin while none is live): e <= min means no live or future
	// pin selects a superseded version.
	if min := l.minPin.Load(); e <= min {
		d.hist = nil
	} else if h := d.hist; h == nil {
		if born := rootOf(r).born; born < e {
			h = &history[V]{from: e, first: [1]version[V]{{born, d.val}}}
			h.old = h.first[:]
			d.hist = h
		}
	} else {
		if h.from < e {
			// The append outgrows first, whose copy is cleared so
			// that it does not keep a pruned value alive.
			h.old = append(h.old, version[V]{h.from, d.val})
			h.first[0], h.from = version[V]{}, e
		}
		// Prune unreachable versions: everything before the last
		// version at or below the smallest pinned epoch is dead. The
		// kept suffix is slid to the front and the vacated slots
		// zeroed, so pruned values are actually released rather than
		// kept alive by the backing array.
		j := 0
		for j+1 < len(h.old) && h.old[j+1].from <= min {
			j++
		}
		if j > 0 {
			kept := copy(h.old, h.old[j:])
			clear(h.old[kept:])
			h.old = h.old[:kept]
		}
	}
	d.val = v
	l.journalMark(r.key, e)
	d.unlock()
	commit.Add(-1)
}

// ValueAt returns the value that was current at epoch at for n's tower
// root: the current value if it was written at or before at, else the
// newest superseded version written at or before at. Sentinel nodes
// yield the zero value. The caller is responsible for having checked
// VisibleAt(at) first.
func (l *List[V]) ValueAt(n *Node, at uint64) V {
	v, _ := l.ValueStampAt(n, at)
	return v
}

// ValueStampAt is ValueAt plus the epoch the returned value became
// current — the stamp a diff compares against its window's low edge to
// decide whether a surviving node's value was overwritten inside the
// window. Without a history record (always so in set form) the stamp is
// the node's born epoch. The caller is responsible for having checked
// VisibleAt(at) first.
func (l *List[V]) ValueStampAt(n *Node, at uint64) (V, uint64) {
	var v V
	r := n.root
	if r == nil || r.kind != kindData {
		return v, 0
	}
	from := rootOf(r).born
	if unsafe.Sizeof(v) == 0 {
		return v, from
	}
	d := dataOf[V](r)
	d.lock()
	v = d.val
	if h := d.hist; h != nil {
		from = h.from
		for i := len(h.old) - 1; from > at && i >= 0; i-- {
			if h.old[i].from <= at {
				v, from = h.old[i].val, h.old[i].from
			}
		}
	}
	d.unlock()
	return v, from
}

// InsertResult reports what Insert or Upsert did.
type InsertResult struct {
	Inserted bool
	Existing *Node // level-0 node of the already-present key, if any
	Root     *Node // level-0 node this call created, nil if already present
	// Top is the top-level node if the tower reached the top, else nil.
	// It is already marked when a delete stopped the tower and the insert
	// tore its top node down itself; the trie walk then disconnects it.
	Top *Node
}

// Insert adds key to the list, starting the descent from start (nil for
// head). If the drawn tower height reaches the top level, the node is also
// linked into the doubly-linked list (prev set via FixPrev) before Insert
// returns, per the paper's toplevelInsert. If the key is already present
// nothing is allocated and the existing level-0 node is reported.
func (l *List[V]) Insert(key uint64, val V, start *Node, c *stats.Op) InsertResult {
	return l.insertWithHeight(key, val, start, l.randomHeight(key), false, nil, c)
}

// Upsert is Insert, except that when the key is already present the
// existing node's value is overwritten with val (still allocation-free).
func (l *List[V]) Upsert(key uint64, val V, start *Node, c *stats.Op) InsertResult {
	return l.insertWithHeight(key, val, start, l.randomHeight(key), true, nil, c)
}

// insertWithHeight is Insert/Upsert with the tower height fixed by the
// caller; tests use it (via export_test.go) to construct deterministic
// shapes. A non-nil hint supplies (and receives back) per-level descent
// positions, the batched write path's amortization (hint.go).
func (l *List[V]) insertWithHeight(key uint64, val V, start *Node, h int, upsert bool, hint *Hint, c *stats.Op) InsertResult {
	var local [MaxLevels]*Node
	lefts := &local
	if hint != nil {
		lefts = &hint.lefts
	}
	br := l.descend(key, start, lefts, c)
	t := target{key: key}
	if br.Right.at(t) && br.Right.dead.Load() == 0 {
		// Already present and live: the fast path allocates nothing. A
		// dead node retained for a pinned epoch falls through instead:
		// the key is logically absent, and the new incarnation splices
		// in front of it (same-key runs stay newest-first).
		if upsert {
			l.SetValue(br.Right, val)
		}
		return InsertResult{Existing: br.Right}
	}
	rn := l.newRoot(val)
	root := &rn.n
	root.key = key
	root.kind = kindData
	root.root = root
	for {
		// Stamp the born epoch, which is also the value's, under the
		// commit counter: the sample and the publishing CAS must
		// complete before any concurrently-registered pin is handed
		// out, or the pinned view could include a key that observably
		// did not exist yet (epoch.go, "The commit counter"). The stamp
		// is released by the CAS and acquired by any reader's next load.
		commit := l.commitEnter(key)
		rn.born = l.epoch.Load()
		hook("insert.committing", root)
		root.next.Store(br.Right)
		root.back.Store(br.Left)
		c.IncCAS()
		ok := br.Left.next.CompareAndSwap(br.Right, root)
		if ok {
			l.journalMark(key, rn.born)
		}
		commit.Add(-1)
		if ok {
			break
		}
		br = l.search(t, br.Left, c)
		if br.Right.at(t) && br.Right.dead.Load() == 0 {
			if upsert {
				l.SetValue(br.Right, val)
			}
			// The prepared node was never published: recycle it.
			l.recycleRoot(rn)
			return InsertResult{Existing: br.Right}
		}
	}
	l.length.Add(1)
	l.nodes.Add(1)

	// Raise the tower while the root's stop flag stays unset (Section 2).
	// Tower nodes above level 0 are plain headers: they carry no value
	// slot. The whole tower is cut from one slab — a single allocation
	// instead of one per level — at the cost of the slab staying
	// reachable while any of its nodes is (a constant-factor trade;
	// towers are torn down level-by-level but their nodes' lifetimes are
	// already coupled through root pointers).
	curr := root
	var slab []Node
	if h > 1 {
		slab = make([]Node, h-1)
	}
	for lv := 1; lv < h; lv++ {
		if root.has(flagStop) {
			return InsertResult{Inserted: true, Root: root}
		}
		tn := &slab[lv-1]
		tn.key = key
		tn.kind = kindData
		tn.level = int8(lv)
		tn.root = root
		tn.down = curr
		var br Bracket
		for {
			br = l.search(t, lefts[lv], c)
			if br.Right.at(t) {
				// A same-key node exists at this level (a racing
				// incarnation); cap our tower here.
				return InsertResult{Inserted: true, Root: root}
			}
			tn.next.Store(br.Right)
			tn.back.Store(br.Left)
			if lv == l.levels-1 {
				tn.prev.Store(br.Left) // initial guide; FixPrev corrects it
			}
			hook("insert.before-raise", tn)
			c.IncCAS()
			if br.Left.next.CompareAndSwap(br.Right, tn) {
				break
			}
			if root.has(flagStop) {
				return InsertResult{Inserted: true, Root: root}
			}
			lefts[lv] = br.Left
		}
		l.nodes.Add(1)
		curr = tn
		if root.has(flagStop) {
			// The link may have landed after a delete's top-down
			// teardown scanned this level, which would then never mark
			// it: tear the level down here, the way Delete does. A
			// delete that stops the tower after this load scans this
			// level later and finds the node itself. A torn-down top
			// node is still reported: until it was marked, a
			// neighbour's trie walk may have pointed a prefix at it,
			// and no delete reports it to move that pointer off.
			l.removeLevel(tn, br.Left, c)
			res := InsertResult{Inserted: true, Root: root}
			if lv == l.levels-1 {
				res.Top = tn
			}
			return res
		}
	}
	if h == l.levels {
		// Reached the top: complete the doubly-linked insertion. Per
		// Section 3 the insert first sets its own prev (Algorithm 1), then
		// updates the prev pointer of its successor; the operation is not
		// complete until both are done (Lemma 3.1 depends on this).
		l.FixPrev(lefts[l.levels-1], curr, c)
		hook("insert.before-succ-repair", curr)
		if l.repair == RepairEager {
			l.makeReadyChain(curr, c)
		} else {
			l.repairSuccessorPrev(curr, c)
		}
		return InsertResult{Inserted: true, Root: root, Top: curr}
	}
	return InsertResult{Inserted: true, Root: root}
}
