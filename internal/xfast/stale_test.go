package xfast

import (
	"sync"
	"testing"

	"skiptrie/internal/skiplist"
	"skiptrie/internal/uintbits"
)

// TestQueriesAcrossStaleTrie reproduces the recovery scenario of Section 4:
// a delete that has removed its node from the skiplist but is paused before
// (or during) the trie walk leaves trie pointers targeting a marked node.
// Queries must recover through back pointers (Algorithm 4) and still return
// correct answers, and the delete's eventual trie walk must fully clean up.
func TestQueriesAcrossStaleTrie(t *testing.T) {
	r := newRig(16)

	// Build a population dense enough that several keys reach the top.
	for k := uint64(0); k < 4000; k++ {
		r.insert(k)
	}
	// Find a top-level (trie-indexed) key away from the edges.
	var victim uint64
	found := false
	for k := uint64(1000); k < 3000; k++ {
		if n, ok := r.list.Find(k, nil, nil); ok {
			// The key is trie-indexed iff a node of its tower sits on the
			// top level; detect via Pred returning it exactly.
			if p := r.trie.Pred(k, false, nil); p.IsData() && p.Key() == k {
				victim, found = k, true
				_ = n
				break
			}
		}
	}
	if !found {
		t.Skip("no trie-indexed key found in the probe window")
	}

	// Pause the delete after the skiplist removal (stop set, tower marked)
	// but before the trie walk: use the delete.after-stop hook to let the
	// skiplist deletion proceed, then pause before DeleteWalk by splitting
	// the two phases manually (the rig gives us that control).
	start := r.trie.Pred(victim, true, nil)
	res := r.list.Delete(victim, start, nil)
	if !res.Deleted || res.Top == nil {
		t.Fatalf("victim %d not deleted as a top-level key", victim)
	}

	// The trie is now stale: it still holds victim's prefixes pointing at a
	// marked node. Queries around the victim must still resolve correctly.
	for q := victim - 3; q <= victim+3; q++ {
		got, ok := r.pred(q)
		want := q
		if q >= victim {
			if q == victim {
				want = victim - 1
			} else {
				want = q
			}
		}
		if !ok || got != want {
			t.Fatalf("pred(%d) = %d,%v with stale trie, want %d", q, got, ok, want)
		}
	}

	// Now run the delayed trie walk; everything must validate.
	r.trie.DeleteWalk(victim, res.Top, start, nil)
	r.validate(t)
}

// TestConcurrentStaleTrieChurn runs many delete pairs with the trie walk
// delayed to widen the stale window while readers hammer queries.
func TestConcurrentStaleTrieChurn(t *testing.T) {
	r := newRig(16)
	const stableStride = 64
	// Stable anchors every stride; churn keys in between.
	for k := uint64(0); k < 4096; k += stableStride {
		r.insert(k)
	}
	stop := make(chan struct{})
	var churn, readers sync.WaitGroup
	// Churner: inserts then deletes with a deliberately delayed trie walk.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := uint64(1 + (i*37)%4095)
			if k%stableStride == 0 {
				continue
			}
			r.insert(k)
			start := r.trie.Pred(k, true, nil)
			res := r.list.Delete(k, start, nil)
			if res.Deleted && res.Top != nil {
				// Readers race against this stale window.
				r.trie.DeleteWalk(k, res.Top, start, nil)
			}
		}
	}()
	// Readers: anchors must always resolve.
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < 4000; i++ {
				q := uint64((i+g)%64) * stableStride
				got, ok := r.pred(q)
				if !ok || got != q {
					t.Errorf("pred(%d) = %d,%v during stale churn", q, got, ok)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	churn.Wait()
	r.validate(t)
}

// TestDeleteWalkIdempotent runs the trie walk twice for the same deleted
// node; the second walk must be a no-op (helping semantics), leaving the
// trie valid.
func TestDeleteWalkIdempotent(t *testing.T) {
	r := newRig(16)
	for k := uint64(0); k < 2000; k++ {
		r.insert(k)
	}
	for k := uint64(100); k < 200; k++ {
		start := r.trie.Pred(k, true, nil)
		res := r.list.Delete(k, start, nil)
		if !res.Deleted {
			t.Fatalf("delete %d failed", k)
		}
		if res.Top != nil {
			r.trie.DeleteWalk(k, res.Top, start, nil)
			r.trie.DeleteWalk(k, res.Top, start, nil) // again
		}
	}
	r.validate(t)
}

// TestInsertWalkHelpsMarkedPointer replays, step by step, a DeleteWalk
// whose top-level search runs before a new key enters the subtree and
// whose swing lands after the new key's InsertWalk passed the level. X
// is the only top-level key below 2^15, so at the root prefix its
// delete's search proves the 0-subtree empty and nulls the pointer. N,
// linked after that search, finds the root's 0-pointer on the marked X:
// it must not take X as its representative, or the late null leaves N
// unrepresented at quiescence.
func TestInsertWalkHelpsMarkedPointer(t *testing.T) {
	r := newRig(16)
	// topInsert inserts keys from k downwards until one reaches the
	// top level, removing the others, and returns it without a trie
	// walk.
	topInsert := func(k uint64) *skiplist.Node {
		for ; ; k-- {
			res := r.list.Insert(k, struct{}{}, nil, nil)
			if res.Top != nil {
				return res.Top
			}
			r.list.Delete(k, nil, nil)
		}
	}
	x := topInsert(0x7000)
	r.trie.InsertWalk(x, nil)
	r.validate(t)

	if del := r.list.Delete(x.Key(), nil, nil); del.Top != x {
		t.Fatalf("delete of %d did not report its top-level node", x.Key())
	}
	// X's DeleteWalk at the root prefix, up to its swing.
	tn := r.trie.lookup(uintbits.Prefix{}, nil)
	if tn == nil {
		t.Fatal("root prefix missing")
	}
	pair := tn.pointers.Load()
	if pair.Zero != x {
		t.Fatalf("root 0-pointer = %v, want X", pair.Zero)
	}
	if br := r.list.SearchTop(x.Key(), nil, nil); br.Left.IsData() {
		t.Fatalf("search left of X found key %d, want the head", br.Left.Key())
	}

	n := topInsert(0x6000)
	r.trie.InsertWalk(n, nil)

	// X's swing lands late, then its walk finishes.
	r.trie.swing(tn, pair, pair.With(0, nil), nil, 0, nil)
	r.trie.DeleteWalk(x.Key(), x, nil, nil)
	r.validate(t)
}
