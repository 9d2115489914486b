package skiplist

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"weak"
)

func newList(t *testing.T, levels int) *List[any] {
	t.Helper()
	return New[any](Config{Levels: levels, Seed: 42})
}

func TestEmptyList(t *testing.T) {
	l := newList(t, 6)
	if l.Len() != 0 {
		t.Fatalf("Len = %d", l.Len())
	}
	if l.Contains(5, nil, nil) {
		t.Fatal("empty list contains 5")
	}
	br := l.PredecessorBracket(5, nil, nil)
	if !br.Left.IsHead() || !br.Right.IsTail() {
		t.Fatalf("bracket of empty list: left=%v right=%v", br.Left.kind, br.Right.kind)
	}
}

func TestInsertContains(t *testing.T) {
	l := newList(t, 6)
	keys := []uint64{5, 1, 9, 3, 7, 0, ^uint64(0)}
	for _, k := range keys {
		r := l.Insert(k, nil, nil, nil)
		if !r.Inserted {
			t.Fatalf("insert %d failed", k)
		}
		if r.Root == nil || r.Root.Key() != k {
			t.Fatalf("insert %d returned bad root", k)
		}
	}
	for _, k := range keys {
		if !l.Contains(k, nil, nil) {
			t.Fatalf("missing %d", k)
		}
	}
	if l.Contains(2, nil, nil) || l.Contains(8, nil, nil) {
		t.Fatal("contains absent key")
	}
	if l.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(keys))
	}
}

func TestDuplicateInsert(t *testing.T) {
	l := newList(t, 4)
	if !l.Insert(7, nil, nil, nil).Inserted {
		t.Fatal("first insert failed")
	}
	if l.Insert(7, nil, nil, nil).Inserted {
		t.Fatal("duplicate insert succeeded")
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestDelete(t *testing.T) {
	l := newList(t, 6)
	for k := uint64(0); k < 100; k++ {
		l.Insert(k, nil, nil, nil)
	}
	for k := uint64(0); k < 100; k += 2 {
		r := l.Delete(k, nil, nil)
		if !r.Deleted {
			t.Fatalf("delete %d failed", k)
		}
	}
	for k := uint64(0); k < 100; k++ {
		want := k%2 == 1
		if got := l.Contains(k, nil, nil); got != want {
			t.Fatalf("contains %d = %v, want %v", k, got, want)
		}
	}
	if l.Len() != 50 {
		t.Fatalf("Len = %d", l.Len())
	}
	if l.Delete(2, nil, nil).Deleted {
		t.Fatal("second delete of 2 succeeded")
	}
}

// TestMarkedNodeKeepsSuccessor marks a level-0 node without unlinking
// it, so that its successor is reachable only through the marked next
// word: the keys are inserted in descending order, so every back pointer
// is the head. The successor must survive two collections, and a Find of
// its key must unlink the marked node and return it.
func TestMarkedNodeKeepsSuccessor(t *testing.T) {
	l := New[int](Config{Levels: 4, Seed: 1})
	for _, k := range []uint64{3, 2, 1} {
		l.InsertWithHeight(k, int(k), nil, 1, nil)
	}
	w := markFirst(t, l)
	runtime.GC()
	runtime.GC()
	if w.Value() == nil {
		t.Fatal("the successor of a marked node was collected")
	}
	n, ok := l.Find(2, nil, nil)
	if !ok || n != w.Value() || l.ValueOf(n) != 2 {
		t.Fatalf("Find(2) = %v, %v; want the marked node's successor holding 2", fmtNode(n), ok)
	}
	if next, marked := l.heads[0].Next(); next != n || marked {
		t.Fatalf("head's successor is %v after Find, want key 2", fmtNode(next))
	}
	CheckInvariants(t, l)
}

// markFirst marks the first level-0 node (key 1) without unlinking it,
// accounting for it as a delete does, and returns only a weak pointer to
// its successor (key 2).
func markFirst(t *testing.T, l *List[int]) weak.Pointer[Node] {
	first := l.heads[0].succ()
	second := first.succ()
	if first.key != 1 || second.key != 2 {
		t.Fatalf("level 0 starts %d, %d; want 1, 2", first.key, second.key)
	}
	if !l.markNode(first, l.heads[0], nil) {
		t.Fatal("markNode did not mark the node")
	}
	l.length.Add(-1)
	l.nodes.Add(-1)
	return weak.Make(second)
}

func TestDeleteAbsent(t *testing.T) {
	l := newList(t, 4)
	l.Insert(5, nil, nil, nil)
	if l.Delete(6, nil, nil).Deleted {
		t.Fatal("delete of absent key succeeded")
	}
	if l.Delete(4, nil, nil).Deleted {
		t.Fatal("delete of absent key succeeded")
	}
}

func TestReinsertAfterDelete(t *testing.T) {
	l := newList(t, 6)
	for round := 0; round < 50; round++ {
		if !l.Insert(42, nil, nil, nil).Inserted {
			t.Fatalf("round %d: insert failed", round)
		}
		if !l.Contains(42, nil, nil) {
			t.Fatalf("round %d: missing after insert", round)
		}
		if !l.Delete(42, nil, nil).Deleted {
			t.Fatalf("round %d: delete failed", round)
		}
		if l.Contains(42, nil, nil) {
			t.Fatalf("round %d: present after delete", round)
		}
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestPredecessorBracket(t *testing.T) {
	l := newList(t, 6)
	keys := []uint64{10, 20, 30, 40, 50}
	for _, k := range keys {
		l.Insert(k, nil, nil, nil)
	}
	tests := []struct {
		q           uint64
		left, right uint64
		leftHead    bool
		rightTail   bool
	}{
		{5, 0, 10, true, false},
		{10, 0, 10, true, false}, // left < 10 <= right
		{11, 10, 20, false, false},
		{25, 20, 30, false, false},
		{50, 40, 50, false, false},
		{51, 50, 0, false, true},
	}
	for _, tc := range tests {
		br := l.PredecessorBracket(tc.q, nil, nil)
		if tc.leftHead != br.Left.IsHead() || (!tc.leftHead && br.Left.Key() != tc.left) {
			t.Errorf("bracket(%d).Left = %v/%d", tc.q, br.Left.kind, br.Left.Key())
		}
		if tc.rightTail != br.Right.IsTail() || (!tc.rightTail && br.Right.Key() != tc.right) {
			t.Errorf("bracket(%d).Right = %v/%d", tc.q, br.Right.kind, br.Right.Key())
		}
	}
}

func TestValueStorage(t *testing.T) {
	l := New[string](Config{Levels: 4, Seed: 42})
	r := l.Insert(3, "three", nil, nil)
	if got := l.ValueOf(r.Root); got != "three" {
		t.Fatalf("value = %v", got)
	}
	l.SetValue(r.Root, "drei")
	if got := l.ValueOf(r.Root); got != "drei" {
		t.Fatalf("value = %v", got)
	}
	n, ok := l.Find(3, nil, nil)
	if !ok || l.ValueOf(n) != "drei" {
		t.Fatalf("Find value = %v, %v", n, ok)
	}
	// Upsert overwrites in place without allocating a node.
	if r := l.Upsert(3, "trois", nil, nil); r.Inserted || r.Existing == nil {
		t.Fatalf("Upsert on existing key: %+v", r)
	}
	if got := l.ValueOf(n); got != "trois" {
		t.Fatalf("value after Upsert = %v", got)
	}
	// Sentinels yield the zero value.
	if got := l.ValueOf(l.Head()); got != "" {
		t.Fatalf("sentinel value = %q", got)
	}
	// The zero value of V round-trips.
	r2 := l.Insert(4, "", nil, nil)
	if got := l.ValueOf(r2.Root); got != "" {
		t.Fatalf("zero value = %v", got)
	}
}

func TestTowerHeightsDistribution(t *testing.T) {
	// With levels = 6, P(top) = 2^-5 = 1/32. Insert many keys and check the
	// top-level population is in a plausible band.
	l := newList(t, 6)
	const n = 1 << 14
	tops := 0
	for k := uint64(0); k < n; k++ {
		if r := l.Insert(k*2654435761%(1<<62), nil, nil, nil); r.Top != nil {
			tops++
		}
	}
	want := n / 32
	if tops < want/2 || tops > want*2 {
		t.Fatalf("top-level nodes = %d, want about %d", tops, want)
	}
}

func TestTopLevelLinkage(t *testing.T) {
	l := newList(t, 4) // P(top) = 1/8, so plenty of top nodes
	const n = 2000
	for k := uint64(0); k < n; k++ {
		l.Insert(k, nil, nil, nil)
	}
	// Walk the top level: keys strictly increasing, prev pointers exact
	// after quiescence, all nodes ready.
	head := l.Head()
	prevNode := head
	cur, _ := head.Next()
	for !cur.IsTail() {
		next, marked := cur.Next()
		if marked {
			t.Fatal("marked node reachable on top level after quiescence")
		}
		if !prevNode.IsHead() && cur.Key() <= prevNode.Key() {
			t.Fatalf("top level out of order: %d after %d", cur.Key(), prevNode.Key())
		}
		if !cur.has(flagReady) {
			t.Fatalf("top node %d not ready", cur.Key())
		}
		if got := cur.Prev(); got != prevNode {
			t.Fatalf("prev of %d is %v, want %v", cur.Key(), fmtNode(got), fmtNode(prevNode))
		}
		prevNode = cur
		cur = next
	}
}

func fmtNode(n *Node) any {
	if n == nil {
		return "<nil>"
	}
	if n.IsHead() {
		return "head"
	}
	if n.IsTail() {
		return "tail"
	}
	return n.Key()
}

func TestTowersConsistent(t *testing.T) {
	l := newList(t, 5)
	const n = 3000
	for k := uint64(0); k < n; k++ {
		l.Insert(k*7, nil, nil, nil)
	}
	for k := uint64(0); k < n; k += 3 {
		l.Delete(k*7, nil, nil)
	}
	CheckInvariants(t, l)
}

func TestDescendFromTrieStart(t *testing.T) {
	// Searching from an arbitrary top-level node left of the key must give
	// the same answer as from the head.
	l := newList(t, 4)
	const n = 5000
	var tops []*Node
	for k := uint64(0); k < n; k++ {
		if r := l.Insert(k, nil, nil, nil); r.Top != nil {
			tops = append(tops, r.Top)
		}
	}
	if len(tops) < 10 {
		t.Skip("too few top nodes")
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		q := uint64(rng.Intn(n))
		// any top node with key <= q works as a start
		var start *Node
		for _, tn := range tops {
			if tn.Key() <= q && (start == nil || tn.Key() > start.Key()) {
				start = tn
			}
		}
		br := l.PredecessorBracket(q, start, nil)
		brHead := l.PredecessorBracket(q, nil, nil)
		if br.Left != brHead.Left || br.Right != brHead.Right {
			t.Fatalf("q=%d: bracket from trie start differs", q)
		}
	}
}

func TestStopFlagCapsRaising(t *testing.T) {
	// After Delete sets stop and marks the tower, no same-root node may
	// remain reachable on any level.
	l := newList(t, 6)
	for k := uint64(0); k < 4000; k++ {
		l.Insert(k, nil, nil, nil)
	}
	for k := uint64(0); k < 4000; k++ {
		l.Delete(k, nil, nil)
	}
	for lv := 0; lv < l.Levels(); lv++ {
		cur, _ := l.heads[lv].Next()
		for !cur.IsTail() {
			next, marked := cur.Next()
			if !marked {
				t.Fatalf("level %d: node %d still reachable after deleting everything", lv, cur.Key())
			}
			cur = next
		}
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestDeleteAlternateKeys(t *testing.T) {
	l := New[any](Config{Levels: 5, Seed: 1})
	for k := uint64(0); k < 2000; k++ {
		l.Insert(k, nil, nil, nil)
	}
	for k := uint64(0); k < 2000; k += 2 {
		if !l.Delete(k, nil, nil).Deleted {
			t.Fatalf("delete %d failed", k)
		}
	}
	for k := uint64(0); k < 2000; k++ {
		want := k%2 == 1
		if got := l.Contains(k, nil, nil); got != want {
			t.Fatalf("contains %d = %v, want %v", k, got, want)
		}
	}
	CheckInvariants(t, l)
}

// TestRaiseAfterDelete parks an insert between its stop-flag check and
// the CAS that raises its tower to a level — a middle one, and the top,
// whose teardown also repairs prev pointers — while a delete of the key
// runs to completion. The raise still lands, after the delete's
// teardown scanned that level, so the insert must tear the node down
// itself rather than leave an unmarked tower node of a dead root.
func TestRaiseAfterDelete(t *testing.T) {
	const levels = 4
	for _, park := range []int{1, levels - 1} {
		l := New[any](Config{Levels: levels, Seed: 1})
		l.InsertWithHeight(9, nil, nil, levels, nil)
		paused := make(chan struct{})
		resume := make(chan struct{})
		var once sync.Once
		restore := SetTestHook(func(site string, n *Node) {
			if site == "insert.before-raise" && n.Key() == 5 && n.Level() == park {
				once.Do(func() { close(paused) })
				<-resume
			}
		})

		done := make(chan struct{})
		go func() {
			defer close(done)
			l.InsertWithHeight(5, nil, nil, levels, nil)
		}()
		<-paused
		if !l.Delete(5, nil, nil).Deleted {
			t.Fatalf("level %d: delete of the parked insert's key failed", park)
		}
		close(resume)
		<-done
		restore()
		if err := l.Validate(); err != nil {
			t.Fatalf("parked at level %d: %v", park, err)
		}
		if l.Contains(5, nil, nil) || !l.Contains(9, nil, nil) {
			t.Fatalf("parked at level %d: wrong key set after the delete", park)
		}
	}
}

// TestPrevUpdateAfterDelete parks a top-level insert just before it
// points its successor's prev back at itself, deletes the key to
// completion — the delete's own repair already points the successor's
// prev past it — and then lets the update land. The update lands on a
// deleted node, so setPrev must find it stale and repair it again.
func TestPrevUpdateAfterDelete(t *testing.T) {
	const levels = 4
	l := New[any](Config{Levels: levels, Seed: 1})
	paused := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	restore := SetTestHook(func(site string, n *Node) {
		if site == "prev.before-set" && n.IsData() && n.Key() == 5 {
			once.Do(func() {
				close(paused)
				<-resume
			})
		}
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		l.InsertWithHeight(5, nil, nil, levels, nil)
	}()
	<-paused
	if !l.Delete(5, nil, nil).Deleted {
		t.Fatal("delete of the parked insert's key failed")
	}
	close(resume)
	<-done
	restore()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPrevCASAfterABA parks a top-level insert of 5 after it loaded the
// tail's prev (the head) and before its CAS points that prev at 5.
// Meanwhile 5 is deleted, and 7 is inserted and deleted at the top, so
// the tail's prev goes head → 7 → head. The parked CAS compares
// pointers, so it lands and installs the deleted 5; setPrev's re-check
// must then find it stale and repair it.
func TestPrevCASAfterABA(t *testing.T) {
	const levels = 4
	l := New[any](Config{Levels: levels, Seed: 1})
	head, tail := l.heads[levels-1], l.tails[levels-1]
	paused := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	restore := SetTestHook(func(site string, n *Node) {
		if site == "prev.before-cas" && n.IsData() && n.Key() == 5 {
			once.Do(func() {
				close(paused)
				<-resume
			})
		}
	})
	t.Cleanup(restore)

	done := make(chan struct{})
	go func() {
		defer close(done)
		l.InsertWithHeight(5, nil, nil, levels, nil)
	}()
	<-paused
	if tail.Prev() != head {
		t.Fatal("tail prev at the park is not the head")
	}
	if !l.Delete(5, nil, nil).Deleted {
		t.Fatal("delete of the parked insert's key failed")
	}
	if r := l.InsertWithHeight(7, nil, nil, levels, nil); r.Top == nil || tail.Prev() != r.Top {
		t.Fatal("insert of 7 did not point the tail's prev at its top node")
	}
	if !l.Delete(7, nil, nil).Deleted {
		t.Fatal("delete of 7 failed")
	}
	if tail.Prev() != head {
		t.Fatal("tail prev after deleting 7 is not the head")
	}
	close(resume)
	<-done
	restore()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEagerRepairMode(t *testing.T) {
	l := New[any](Config{Levels: 4, Repair: RepairEager, Seed: 5})
	const n = 3000
	for k := uint64(0); k < n; k++ {
		l.Insert(k, nil, nil, nil)
	}
	for k := uint64(0); k < n; k += 4 {
		l.Delete(k, nil, nil)
	}
	CheckInvariants(t, l)
}

func TestLevelsClamped(t *testing.T) {
	l := New[any](Config{Levels: 0})
	if l.Levels() != 2 {
		t.Fatalf("Levels = %d, want 2", l.Levels())
	}
	l = New[any](Config{Levels: 100})
	if l.Levels() != MaxLevels {
		t.Fatalf("Levels = %d, want %d", l.Levels(), MaxLevels)
	}
}

func TestRandomHeightDistribution(t *testing.T) {
	l := newList(t, 6)
	counts := make([]int, 7)
	const n = 1 << 16
	for i := 0; i < n; i++ {
		h := l.randomHeight(uint64(i))
		if h < 1 || h > 6 {
			t.Fatalf("height %d out of range", h)
		}
		counts[h]++
	}
	// P(h) = 2^-h for h < 6, remainder on 6: 1/2, 1/4, ..., 1/32, 1/32.
	for h := 1; h <= 5; h++ {
		want := n >> h
		if counts[h] < want*8/10 || counts[h] > want*12/10 {
			t.Errorf("height %d: %d draws, want about %d", h, counts[h], want)
		}
	}
	want6 := n >> 5
	if counts[6] < want6*7/10 || counts[6] > want6*13/10 {
		t.Errorf("height 6: %d draws, want about %d", counts[6], want6)
	}
}

// --- randomized differential test against a model ---

func TestRandomOpsVsModel(t *testing.T) {
	l := newList(t, 6)
	model := map[uint64]bool{}
	rng := rand.New(rand.NewSource(99))
	const space = 512
	for i := 0; i < 30000; i++ {
		k := uint64(rng.Intn(space))
		switch rng.Intn(3) {
		case 0:
			got := l.Insert(k, nil, nil, nil).Inserted
			want := !model[k]
			if got != want {
				t.Fatalf("op %d: insert %d = %v, want %v", i, k, got, want)
			}
			model[k] = true
		case 1:
			got := l.Delete(k, nil, nil).Deleted
			want := model[k]
			if got != want {
				t.Fatalf("op %d: delete %d = %v, want %v", i, k, got, want)
			}
			delete(model, k)
		case 2:
			got := l.Contains(k, nil, nil)
			if got != model[k] {
				t.Fatalf("op %d: contains %d = %v, want %v", i, k, got, model[k])
			}
		}
	}
	// Final sweep: bracket queries agree with the model's sorted view.
	var keys []uint64
	for k := range model {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for q := uint64(0); q < space; q++ {
		br := l.PredecessorBracket(q, nil, nil)
		wantLeft := uint64(0)
		haveLeft := false
		for _, k := range keys {
			if k < q {
				wantLeft, haveLeft = k, true
			}
		}
		if haveLeft != !br.Left.IsHead() {
			t.Fatalf("pred(%d): left head mismatch", q)
		}
		if haveLeft && br.Left.Key() != wantLeft {
			t.Fatalf("pred(%d) = %d, want %d", q, br.Left.Key(), wantLeft)
		}
	}
}

// --- concurrency tests ---

func TestConcurrentDisjointRanges(t *testing.T) {
	l := newList(t, 6)
	const (
		workers = 8
		perG    = 1500
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			base := g * perG
			for i := uint64(0); i < perG; i++ {
				if !l.Insert(base+i, nil, nil, nil).Inserted {
					t.Errorf("insert %d failed", base+i)
					return
				}
			}
			// Delete every third key in our own range.
			for i := uint64(0); i < perG; i += 3 {
				if !l.Delete(base+i, nil, nil).Deleted {
					t.Errorf("delete %d failed", base+i)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	want := 0
	for g := uint64(0); g < workers; g++ {
		for i := uint64(0); i < perG; i++ {
			present := l.Contains(g*perG+i, nil, nil)
			wantPresent := i%3 != 0
			if present != wantPresent {
				t.Fatalf("key %d: present=%v want %v", g*perG+i, present, wantPresent)
			}
			if wantPresent {
				want++
			}
		}
	}
	if l.Len() != want {
		t.Fatalf("Len = %d, want %d", l.Len(), want)
	}
	CheckInvariants(t, l)
}

func TestConcurrentSameKeyInsertDelete(t *testing.T) {
	l := newList(t, 5)
	const keys = 8
	const workers = 8
	const rounds = 2000
	var wg sync.WaitGroup
	deltas := make([][]int, workers)
	for g := 0; g < workers; g++ {
		deltas[g] = make([]int, keys)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 17))
			for r := 0; r < rounds; r++ {
				k := uint64(rng.Intn(keys))
				if rng.Intn(2) == 0 {
					if l.Insert(k, nil, nil, nil).Inserted {
						deltas[g][k]++
					}
				} else {
					if l.Delete(k, nil, nil).Deleted {
						deltas[g][k]--
					}
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for k := 0; k < keys; k++ {
		net := 0
		for g := 0; g < workers; g++ {
			net += deltas[g][k]
		}
		if net != 0 && net != 1 {
			t.Fatalf("key %d: net insertions %d, want 0 or 1", k, net)
		}
		present := l.Contains(uint64(k), nil, nil)
		if present != (net == 1) {
			t.Fatalf("key %d: present=%v, net=%d", k, present, net)
		}
		if present {
			total++
		}
	}
	if l.Len() != total {
		t.Fatalf("Len = %d, want %d", l.Len(), total)
	}
	CheckInvariants(t, l)
}

func TestConcurrentReadersDuringChurn(t *testing.T) {
	l := newList(t, 6)
	const stable = 300
	for k := uint64(0); k < stable; k++ {
		l.Insert(k*3, nil, nil, nil)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := stable*3 + uint64(rng.Intn(1000))
				if rng.Intn(2) == 0 {
					l.Insert(k, nil, nil, nil)
				} else {
					l.Delete(k, nil, nil)
				}
			}
		}(int64(g))
	}
	for round := 0; round < 30; round++ {
		for k := uint64(0); k < stable; k++ {
			if !l.Contains(k*3, nil, nil) {
				close(stop)
				t.Fatalf("stable key %d lost", k*3)
			}
			br := l.PredecessorBracket(k*3+1, nil, nil)
			if br.Left.IsHead() || br.Left.Key() != k*3 {
				close(stop)
				t.Fatalf("pred(%d) = %v", k*3+1, fmtNode(br.Left))
			}
		}
	}
	close(stop)
	wg.Wait()
	CheckInvariants(t, l)
}

func TestConcurrentEagerMode(t *testing.T) {
	l := New[any](Config{Levels: 4, Repair: RepairEager, Seed: 11})
	var wg sync.WaitGroup
	const workers = 6
	const perG = 800
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			for i := uint64(0); i < perG; i++ {
				k := g*perG + i
				l.Insert(k, nil, nil, nil)
				if i%2 == 0 {
					l.Delete(k, nil, nil)
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	CheckInvariants(t, l)
}

func TestFixPrevOnTail(t *testing.T) {
	// Deleting the largest top-level node must repair tail.prev.
	l := newList(t, 2) // levels=2: every key has a 1/2 chance of top; small
	var biggestTop *Node
	for k := uint64(0); k < 100; k++ {
		if r := l.Insert(k, nil, nil, nil); r.Top != nil {
			biggestTop = r.Top
		}
	}
	if biggestTop == nil {
		t.Skip("no top nodes")
	}
	// Delete all keys above the biggest top node, then the top node itself.
	for k := biggestTop.Key(); k < 100; k++ {
		l.Delete(k, nil, nil)
	}
	tail := l.tails[l.Top()]
	p := tail.Prev()
	if p.Marked() {
		t.Fatal("tail.prev points to a marked node after quiescent deletes")
	}
}
