package skiplist

import "skiptrie/internal/stats"

// Hint carries the per-level brackets left behind by a previous insert
// so the next insert of a nearby key — in a sorted batch, the very next
// key — can resume its descent from those positions instead of walking
// each level from the node the descent chain reaches there.
//
// A cached bracket is used on a level only when it lies strictly
// between that down-chain node and the key. In a quiescent list every
// level node in that interval is on the plain descent's path, so
// starting there skips a prefix of the walk and reaches the same
// bracket: a batched key never walks more than a fresh descent from the
// same start, however far apart the keys of a run lie. For adjacent
// ascending keys (bulk loads, coalesced sorted writes) the brackets sit
// right beside the next key on every level, so each key after the first
// costs a few hops per level instead of a descent, which is where
// StoreBatch's amortization comes from. Keys that move backwards (a
// descending run) find the hint past them and descend plainly.
//
// A Hint is a position cache, never a correctness input: every node it
// holds is re-validated by the same listSearch that tolerates marked,
// deleted or overtaken start nodes (recovery through back pointers,
// which strictly decrease, terminates at the level head). A hint may
// therefore be reused across concurrent deletes, splits of the batch,
// or arbitrary delays — stale entries only cost extra hops. The zero
// Hint is ready to use and means "no position yet": the first insert
// through it descends normally (from the caller's start anchor) and
// primes the levels.
//
// Hints are single-goroutine, single-list state: they must not be
// shared between goroutines or reused against a different list.
type Hint struct {
	lefts [MaxLevels]*Node
}

// Reset forgets the cached positions, returning the hint to its zero
// state (e.g. before reusing it for a new run or a different list).
func (h *Hint) Reset() { *h = Hint{} }

// UpsertHinted is Upsert resuming its descent from (and re-priming)
// hint. start is the descent anchor used where the hint does not
// apply — typically the x-fast trie's predecessor for the first key of
// a run, nil for the head.
func (l *List[V]) UpsertHinted(key uint64, val V, start *Node, hint *Hint, c *stats.Op) InsertResult {
	return l.insertWithHeight(key, val, start, l.randomHeight(key), true, hint, c)
}
