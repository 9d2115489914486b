package skiplist

import "testing"

// TestInsertDeleteAllocs pins the allocation cost of the marker-node
// links: a fresh insert allocates its level-0 node plus, for a tower
// above level 0, one slab holding the rest of the tower, and a delete
// allocates one marker per tower level. No link update allocates. The
// list has more levels than the towers measured, so no insert reaches
// the top level and its prev bookkeeping.
func TestInsertDeleteAllocs(t *testing.T) {
	const runs = 1000
	for _, tc := range []struct {
		height      int
		insert, del float64
	}{
		{height: 1, insert: 1, del: 1},
		{height: 2, insert: 2, del: 2},
	} {
		l := New[int](Config{Levels: 4, Seed: 1})
		next := uint64(0)
		if got := testing.AllocsPerRun(runs, func() {
			l.InsertWithHeight(next, 1, nil, tc.height, nil)
			next += 2
		}); got != tc.insert {
			t.Errorf("height %d: fresh insert allocates %v objects, want %v", tc.height, got, tc.insert)
		}
		next = 0
		if got := testing.AllocsPerRun(runs, func() {
			l.Delete(next, nil, nil)
			next += 2
		}); got != tc.del {
			t.Errorf("height %d: delete allocates %v objects, want %v", tc.height, got, tc.del)
		}
	}
}
