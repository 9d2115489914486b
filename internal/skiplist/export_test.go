package skiplist

import "skiptrie/internal/stats"

// InsertWithHeight exposes height-controlled insertion so tests can build
// deterministic tower shapes.
func (l *List[V]) InsertWithHeight(key uint64, val V, start *Node, h int, c *stats.Op) InsertResult {
	return l.insertWithHeight(key, val, start, h, false, nil, c)
}

// UpsertWithHeight is InsertWithHeight with Upsert's overwrite semantics.
func (l *List[V]) UpsertWithHeight(key uint64, val V, start *Node, h int, c *stats.Op) InsertResult {
	return l.insertWithHeight(key, val, start, h, true, nil, c)
}

// RandomHeight exposes the striped height draw for the RNG tests.
func (l *Topology) RandomHeight(key uint64) int { return l.randomHeight(key) }

// UpsertHintedWithHeight is UpsertHinted with the tower height fixed by
// the caller.
func (l *List[V]) UpsertHintedWithHeight(key uint64, val V, start *Node, h int, hint *Hint, c *stats.Op) InsertResult {
	return l.insertWithHeight(key, val, start, h, true, hint, c)
}
