package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"skiptrie/internal/skiplist"
	"skiptrie/internal/testenv"
)

// TestConcurrentSameKeyChurnTrieClean hammers a handful of keys with
// concurrent Store/Delete/LoadOrStore churn and validates the x-fast
// trie at quiescence. It is the regression test for two races that left
// stale trie state behind (each originally reproducing within a few
// hundred iterations):
//
//  1. An InsertWalk that created a trie level after its node was marked
//     — the deleter's shortest-first walk had already passed that
//     prefix, so the new trie node was never removed. InsertWalk now
//     re-checks the mark after publishing a level and disconnects it
//     itself.
//  2. Two racing deletes of one key: the loser of the root-mark CAS was
//     the only caller that had seen (and marked) the tower's top-level
//     node, but it returned without reporting it, so no DeleteWalk ever
//     disconnected the trie's pointers to the marked node. DeleteResult
//     now carries Top even when Deleted is false, and core.Delete walks
//     it regardless.
func TestConcurrentSameKeyChurnTrieClean(t *testing.T) {
	iters := testenv.Scale(300)
	if testing.Short() {
		iters = 60
	}
	for iter := 0; iter < iters; iter++ {
		s := New[uint64](Config{Width: 16, Seed: uint64(iter + 1)})
		keys := []uint64{0x1FFF, 0x2000, 0x3FFF, 0x4000, 0xDFFF, 0xE000, 0xFFFF}
		var wg sync.WaitGroup
		for g := 0; g < 7; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 300; i++ {
					k := keys[rng.Intn(len(keys))]
					switch rng.Intn(3) {
					case 0:
						s.Store(k, k, nil)
					case 1:
						s.Delete(k, nil)
					default:
						s.LoadOrStore(k, k, nil)
					}
				}
			}(int64(iter*100 + g))
		}
		wg.Wait()
		if err := s.Validate(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

// TestRaiseTornDownTrieClean replays the window in which a tower raise
// lands on the top level after a delete of its key stopped the tower and
// scanned that level. The insert then tears its new top node down
// itself, and until it marks the node a neighbour's DeleteWalk can swing
// a trie pointer onto it. The insert of K parks before its top-level
// raise while K is deleted, then again just before marking its own top
// node while the adjacent top-level key Y is deleted through the
// SkipTrie; the trie must be clean once the insert returns.
func TestRaiseTornDownTrieClean(t *testing.T) {
	const k, y = 0x1000, 0x2000
	s := New[struct{}](Config{Width: 16, Seed: 1})
	top := s.Levels() - 1
	onTop := func(key uint64) bool {
		n := s.trie.Pred(key, false, nil)
		return n.IsData() && n.Key() == key && !n.Marked()
	}
	for i := 0; !onTop(y); i++ {
		if i == 1000 {
			t.Fatal("no tower of Y reached the top level")
		}
		s.Delete(y, nil)
		s.Add(y, nil)
	}

	// Each site parks once: a retried mark CAS passes its site again.
	parked := make(chan string)
	resume := make(chan struct{})
	var marking atomic.Bool
	restore := skiplist.SetTestHook(func(site string, n *skiplist.Node) {
		if n.Key() != k || n.Level() != top {
			return
		}
		if site == "insert.before-raise" ||
			site == "delete.before-mark" && marking.CompareAndSwap(false, true) {
			parked <- site
			<-resume
		}
	})
	t.Cleanup(restore) // a failed step must not leave the hook parking later tests
	var done chan struct{}
	for i := 0; ; i++ {
		if i == 1000 {
			t.Fatal("no tower of K reached the top level")
		}
		done = make(chan struct{})
		go func() {
			defer close(done)
			s.Add(k, nil)
		}()
		select {
		case site := <-parked:
			if site != "insert.before-raise" {
				t.Fatalf("insert parked at %s, want insert.before-raise", site)
			}
		case <-done:
			s.Delete(k, nil) // the tower stayed below the top: draw again
			continue
		}
		break
	}
	if !s.Delete(k, nil) {
		t.Fatal("delete of the parked insert's key failed")
	}
	resume <- struct{}{}
	if site := <-parked; site != "delete.before-mark" {
		t.Fatalf("insert parked at %s, want delete.before-mark", site)
	}
	if !s.Delete(y, nil) {
		t.Fatal("delete of the neighbour failed")
	}
	resume <- struct{}{}
	<-done
	restore()
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}
