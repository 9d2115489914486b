package skiplist

import "testing"

// TestTopGapsExact builds a deterministic shape with InsertWithHeight and
// checks the gap accounting precisely.
func TestTopGapsExact(t *testing.T) {
	l := New[any](Config{Levels: 3, Seed: 1})
	top := l.Levels()
	// Keys 0..9; keys 3 and 7 reach the top level.
	for k := uint64(0); k < 10; k++ {
		h := 1
		if k == 3 || k == 7 {
			h = top
		}
		l.InsertWithHeight(k, nil, nil, h, nil)
	}
	gaps := l.TopGaps()
	// Boundaries: head..3 -> 3 keys (0,1,2); 3..7 -> 3 keys (4,5,6);
	// 7..tail -> 2 keys (8,9).
	want := []int{3, 3, 2}
	if len(gaps) != len(want) {
		t.Fatalf("gaps = %v, want %v", gaps, want)
	}
	for i := range want {
		if gaps[i] != want[i] {
			t.Fatalf("gaps = %v, want %v", gaps, want)
		}
	}
}

func TestTopGapsEmptyAndAllTop(t *testing.T) {
	l := New[any](Config{Levels: 3, Seed: 1})
	if gaps := l.TopGaps(); len(gaps) != 1 || gaps[0] != 0 {
		t.Fatalf("empty list gaps = %v", gaps)
	}
	top := l.Levels()
	for k := uint64(0); k < 5; k++ {
		l.InsertWithHeight(k, nil, nil, top, nil)
	}
	gaps := l.TopGaps()
	// Every key is a boundary: 6 gaps (head..0, 0..1, ..., 4..tail), all 0.
	if len(gaps) != 6 {
		t.Fatalf("gaps = %v", gaps)
	}
	for _, g := range gaps {
		if g != 0 {
			t.Fatalf("gaps = %v, want all zero", gaps)
		}
	}
}

func TestTopGapsSkipsDeleted(t *testing.T) {
	l := New[any](Config{Levels: 3, Seed: 1})
	top := l.Levels()
	for k := uint64(0); k < 8; k++ {
		h := 1
		if k%4 == 0 { // 0 and 4 reach top
			h = top
		}
		l.InsertWithHeight(k, nil, nil, h, nil)
	}
	l.Delete(4, nil, nil) // removes a top boundary
	gaps := l.TopGaps()
	// Remaining boundary: 0. Gaps: head..0 -> 0 keys; 0..tail -> 6 keys.
	want := []int{0, 6}
	if len(gaps) != len(want) || gaps[0] != want[0] || gaps[1] != want[1] {
		t.Fatalf("gaps = %v, want %v", gaps, want)
	}
}

func TestLevelCounts(t *testing.T) {
	l := New[any](Config{Levels: 3, Seed: 5})
	// Heights: two full towers, three height-2, four height-1.
	for k := uint64(0); k < 2; k++ {
		l.InsertWithHeight(k, nil, nil, 3, nil)
	}
	for k := uint64(10); k < 13; k++ {
		l.InsertWithHeight(k, nil, nil, 2, nil)
	}
	for k := uint64(20); k < 24; k++ {
		l.InsertWithHeight(k, nil, nil, 1, nil)
	}
	counts := l.LevelCounts()
	want := []int{9, 5, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("LevelCounts = %v, want %v", counts, want)
		}
	}
	// Deleting a full tower updates every level.
	l.Delete(0, nil, nil)
	counts = l.LevelCounts()
	want = []int{8, 4, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("LevelCounts after delete = %v, want %v", counts, want)
		}
	}
}

func TestLastBracket(t *testing.T) {
	l := New[any](Config{Levels: 4, Seed: 2})
	if br := l.LastBracket(nil, nil); !br.Left.IsHead() || !br.Right.IsTail() {
		t.Fatalf("empty LastBracket = %v/%v", fmtNode(br.Left), fmtNode(br.Right))
	}
	for k := uint64(0); k < 500; k++ {
		l.Insert(k*3, nil, nil, nil)
	}
	br := l.LastBracket(nil, nil)
	if !br.Left.IsData() || br.Left.Key() != 499*3 {
		t.Fatalf("LastBracket.Left = %v, want %d", fmtNode(br.Left), 499*3)
	}
	if !br.Right.IsTail() {
		t.Fatal("LastBracket.Right is not the tail")
	}
	// After deleting the max, the bracket moves.
	l.Delete(499*3, nil, nil)
	br = l.LastBracket(nil, nil)
	if br.Left.Key() != 498*3 {
		t.Fatalf("LastBracket.Left = %v after delete, want %d", fmtNode(br.Left), 498*3)
	}
}

func TestNodeCountTracksTowers(t *testing.T) {
	l := New[any](Config{Levels: 4, Seed: 3})
	top := l.Levels()
	l.InsertWithHeight(1, nil, nil, 1, nil)   // 1 node
	l.InsertWithHeight(2, nil, nil, top, nil) // 4 nodes
	if got := l.NodeCount(); got != 5 {
		t.Fatalf("NodeCount = %d, want 5", got)
	}
	l.Delete(2, nil, nil)
	if got := l.NodeCount(); got != 1 {
		t.Fatalf("NodeCount = %d after delete, want 1", got)
	}
	l.Delete(1, nil, nil)
	if got := l.NodeCount(); got != 0 {
		t.Fatalf("NodeCount = %d after drain, want 0", got)
	}
}

// TestUpsertKeepsShape pins the upsert-on-existing path with deterministic
// heights: the value is overwritten in place, and no second tower (or
// taller incarnation) is created even when the upsert draws a top height.
func TestUpsertKeepsShape(t *testing.T) {
	l := New[string](Config{Levels: 3, Seed: 6})
	top := l.Levels()
	if r := l.InsertWithHeight(5, "a", nil, 1, nil); !r.Inserted {
		t.Fatal("seed insert failed")
	}
	nodes := l.NodeCount()
	r := l.UpsertWithHeight(5, "b", nil, top, nil)
	if r.Inserted || r.Existing == nil {
		t.Fatalf("upsert on existing key: %+v", r)
	}
	if got := l.ValueOf(r.Existing); got != "b" {
		t.Fatalf("value after upsert = %q", got)
	}
	if got := l.NodeCount(); got != nodes {
		t.Fatalf("upsert changed node count: %d -> %d", nodes, got)
	}
	if counts := l.LevelCounts(); counts[top-1] != 0 {
		t.Fatalf("upsert raised a tower: level counts %v", counts)
	}
	CheckInvariants(t, l)
}

func TestNodeAccessors(t *testing.T) {
	l := New[string](Config{Levels: 3, Seed: 4})
	top := l.Levels()
	r := l.InsertWithHeight(9, "v", nil, top, nil)
	if r.Top == nil {
		t.Fatal("tower did not reach top")
	}
	n := r.Top
	if n.Level() != top-1 {
		t.Fatalf("Level = %d", n.Level())
	}
	if n.root != r.Root {
		t.Fatal("Root mismatch")
	}
	if n.Back() == nil {
		t.Fatal("Back is nil")
	}
	next, marked := n.Next()
	if marked || !next.IsTail() || n.Marked() {
		t.Fatal("fresh node marked or not linked to the tail")
	}
	// Deletion marks the node and freezes its successor.
	l.Delete(9, nil, nil)
	if frozen, marked := n.Next(); !marked || !n.Marked() || frozen != next {
		t.Fatal("deleted node unmarked or its successor moved")
	}
	if got := l.ValueOf(n); got != "v" {
		t.Fatalf("ValueOf = %v", got)
	}
}
