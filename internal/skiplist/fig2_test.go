package skiplist

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFigure2BackwardGap reproduces the paper's Section 1 / Figure 2
// scenario deterministically:
//
//	the list holds 1 and 7; insert(5) links itself forward and sets its
//	own prev, but is preempted before repairing 7.prev; then 2 and 3 are
//	inserted and complete. Now 7.prev still points to 1 while the forward
//	chain reads 1 -> 2 -> 3 -> 5 -> 7: a backward gap of three nodes.
//
// The paper's design (option 2) tolerates this transient state — queries
// walk forward across the gap, charged to the overlapping-interval
// contention of the still-active insert(5) (Lemma 3.1) — and the gap must
// vanish as soon as insert(5) completes.
func TestFigure2BackwardGap(t *testing.T) {
	l := New[any](Config{Levels: 2, Seed: 1})
	top := l.Levels()

	// 1 and 7 are complete top-level nodes.
	l.InsertWithHeight(1, nil, nil, top, nil)
	l.InsertWithHeight(7, nil, nil, top, nil)

	paused := make(chan *Node, 1)
	resume := make(chan struct{})
	restore := SetTestHook(func(site string, n *Node) {
		if site == "insert.before-succ-repair" && n.Key() == 5 {
			paused <- n
			<-resume
		}
	})
	defer restore()

	done := make(chan struct{})
	go func() {
		defer close(done)
		l.InsertWithHeight(5, nil, nil, top, nil)
	}()
	node5 := <-paused // insert(5) linked + own prev set, successor repair pending

	// Concurrent inserts of 2 and 3 complete while insert(5) is stalled.
	l.InsertWithHeight(2, nil, nil, top, nil)
	l.InsertWithHeight(3, nil, nil, top, nil)

	// Locate node 7 on the top level.
	br := l.SearchTop(7, nil, nil)
	node7 := br.Right
	if !node7.IsData() || node7.Key() != 7 {
		t.Fatalf("node 7 not found: %v", node7)
	}

	// The Figure 2 state: 7.prev lags behind the forward chain.
	if got := node7.Prev(); got.Key() != 1 {
		t.Fatalf("7.prev = %v, want the stale 1 (Fig 2)", fmtNode(got))
	}
	// Forward chain from 7.prev crosses 2, 3, 5: count the gap.
	chain := 0
	n := node7.Prev()
	for n != node7 {
		n, _ = n.Next()
		chain++
	}
	if chain != 4 { // 1->2->3->5->7
		t.Fatalf("backward gap chain length = %d, want 4", chain)
	}

	// Lemma 3.1: the gap is permitted only while the insert of the node
	// just before 7 (node 5) is still active — and it is.
	select {
	case <-done:
		t.Fatal("insert(5) completed while supposedly stalled")
	default:
	}
	if node5.Key() != 5 {
		t.Fatalf("paused node key = %d", node5.Key())
	}

	// Searches still find correct answers across the gap (they rely only
	// on the forward direction).
	if b := l.SearchTop(6, node7, nil); !b.Left.IsData() || b.Left.Key() != 5 {
		t.Fatalf("search for 6 across the gap: left = %v", fmtNode(b.Left))
	}

	// Resume insert(5): the damage must be repaired by the time it
	// completes ("it is guaranteed that some operation will correct the
	// problem before it completes").
	close(resume)
	<-done
	if got := node7.Prev(); !got.IsData() || got.Key() != 5 {
		t.Fatalf("7.prev = %v after insert(5) completed, want 5", fmtNode(got))
	}
	CheckInvariants(t, l)
}

// TestFigure2EagerModeCloses verifies that in eager-helping mode (option
// 1) the inserts of 2 and 3 repair the gap themselves — 7.prev is fixed
// even though insert(5) is still stalled, matching the paper's
// description of eager helping.
func TestFigure2EagerModeCloses(t *testing.T) {
	l := New[any](Config{Levels: 2, Repair: RepairEager, Seed: 1})
	top := l.Levels()
	l.InsertWithHeight(1, nil, nil, top, nil)
	l.InsertWithHeight(7, nil, nil, top, nil)

	paused := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	restore := SetTestHook(func(site string, n *Node) {
		if site == "insert.before-succ-repair" && n.Key() == 5 {
			once.Do(func() { close(paused) })
			<-resume
		}
	})
	defer restore()

	done := make(chan struct{})
	go func() {
		defer close(done)
		l.InsertWithHeight(5, nil, nil, top, nil)
	}()
	<-paused

	// 3's eager ready-chain must help across the not-ready 5 and fix
	// 7.prev before its own insert completes.
	l.InsertWithHeight(2, nil, nil, top, nil)
	l.InsertWithHeight(3, nil, nil, top, nil)

	br := l.SearchTop(7, nil, nil)
	node7 := br.Right
	if got := node7.Prev(); !got.IsData() || got.Key() != 5 {
		t.Fatalf("eager mode: 7.prev = %v while insert(5) stalled, want 5", fmtNode(got))
	}
	close(resume)
	<-done
	CheckInvariants(t, l)
}

// TestGoschedInjection shakes interleavings by yielding the scheduler at
// every hook site during a concurrent workload, then validates.
func TestGoschedInjection(t *testing.T) {
	var fired atomic.Int64
	restore := SetTestHook(func(string, *Node) {
		fired.Add(1)
		runtime.Gosched()
	})
	defer restore()

	l := New[any](Config{Levels: 3, Seed: 9})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 1500; i++ {
				k := uint64(rng.Intn(128))
				if rng.Intn(2) == 0 {
					l.Insert(k, nil, nil, nil)
				} else {
					l.Delete(k, nil, nil)
				}
			}
		}(int64(g) + 3)
	}
	wg.Wait()
	if fired.Load() == 0 {
		t.Fatal("hook never fired")
	}
	CheckInvariants(t, l)
}
