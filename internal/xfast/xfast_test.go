package xfast

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"skiptrie/internal/skiplist"
	"skiptrie/internal/uintbits"
)

// rig couples a truncated skiplist with a trie the way internal/core does,
// so the trie walks can be exercised in isolation.
type rig struct {
	width uint8
	list  *skiplist.List[struct{}]
	trie  *Trie
}

func newRig(width uint8) *rig {
	l := skiplist.New[struct{}](skiplist.Config{Levels: uintbits.Levels(width), Seed: 7})
	return &rig{
		width: width,
		list:  l,
		trie:  New(Config{Width: width, List: l.Topo()}),
	}
}

func (r *rig) insert(key uint64) bool {
	start := r.trie.Pred(key, false, nil)
	if start.IsData() && start.Key() == key && !start.Marked() {
		return false
	}
	res := r.list.Insert(key, struct{}{}, start, nil)
	if !res.Inserted {
		return false
	}
	if res.Top != nil {
		r.trie.InsertWalk(res.Top, nil)
	}
	return true
}

func (r *rig) delete(key uint64) bool {
	start := r.trie.Pred(key, true, nil)
	res := r.list.Delete(key, start, nil)
	if !res.Deleted {
		return false
	}
	if res.Top != nil {
		r.trie.DeleteWalk(key, res.Top, start, nil)
	}
	return true
}

// pred returns the largest key <= q, as the composed SkipTrie would.
func (r *rig) pred(q uint64) (uint64, bool) {
	start := r.trie.Pred(q, false, nil)
	br := r.list.PredecessorBracket(q, start, nil)
	if br.Right.IsData() && br.Right.Key() == q {
		return q, true
	}
	if br.Left.IsData() {
		return br.Left.Key(), true
	}
	return 0, false
}

func (r *rig) validate(t *testing.T) {
	t.Helper()
	if err := r.list.Validate(); err != nil {
		t.Fatalf("list invariant: %v", err)
	}
	if err := r.trie.Validate(); err != nil {
		t.Fatalf("trie invariant: %v", err)
	}
}

func TestEmptyTrie(t *testing.T) {
	r := newRig(16)
	if n := r.trie.LowestAncestor(100, nil); !n.IsHead() {
		t.Fatalf("LowestAncestor on empty trie = %v", n.Key())
	}
	if n := r.trie.Pred(100, false, nil); !n.IsHead() {
		t.Fatal("Pred on empty trie should hit the head")
	}
	if _, ok := r.pred(100); ok {
		t.Fatal("pred on empty rig succeeded")
	}
	r.validate(t)
}

func TestInsertValidate(t *testing.T) {
	r := newRig(16)
	keys := []uint64{0, 1, 1 << 15, 1<<16 - 1, 12345, 4096, 4097}
	for _, k := range keys {
		if !r.insert(k) {
			t.Fatalf("insert %d failed", k)
		}
	}
	for _, k := range keys {
		if r.insert(k) {
			t.Fatalf("duplicate insert %d succeeded", k)
		}
	}
	r.validate(t)
}

func TestPredecessorExhaustiveSmallUniverse(t *testing.T) {
	// Width 8: the whole universe is 256 keys; check every query against a
	// brute-force model, through several insert/delete waves.
	r := newRig(8)
	model := map[uint64]bool{}
	rng := rand.New(rand.NewSource(21))
	check := func() {
		t.Helper()
		var sorted []uint64
		for k := range model {
			sorted = append(sorted, k)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for q := uint64(0); q < 256; q++ {
			var want uint64
			haveWant := false
			for _, k := range sorted {
				if k <= q {
					want, haveWant = k, true
				}
			}
			got, haveGot := r.pred(q)
			if haveGot != haveWant || (haveWant && got != want) {
				t.Fatalf("pred(%d) = %d,%v want %d,%v", q, got, haveGot, want, haveWant)
			}
		}
	}
	for wave := 0; wave < 6; wave++ {
		for i := 0; i < 60; i++ {
			k := uint64(rng.Intn(256))
			if rng.Intn(2) == 0 {
				if r.insert(k) != !model[k] {
					t.Fatalf("insert %d disagreed with model", k)
				}
				model[k] = true
			} else {
				if r.delete(k) != model[k] {
					t.Fatalf("delete %d disagreed with model", k)
				}
				delete(model, k)
			}
		}
		check()
		r.validate(t)
	}
}

func TestDeleteEmptiesTrie(t *testing.T) {
	r := newRig(16)
	for k := uint64(0); k < 3000; k++ {
		r.insert(k * 21)
	}
	for k := uint64(0); k < 3000; k++ {
		if !r.delete(k * 21) {
			t.Fatalf("delete %d failed", k*21)
		}
	}
	if got := r.trie.PrefixCount(); got != 0 {
		t.Fatalf("trie still holds %d prefixes after deleting everything", got)
	}
	r.validate(t)
}

func TestLowestAncestorFindsClosest(t *testing.T) {
	r := newRig(16)
	// Insert enough keys that some reach the top level.
	var tops []uint64
	for k := uint64(0); k < 20000; k += 7 {
		start := r.trie.Pred(k, false, nil)
		res := r.list.Insert(k, struct{}{}, start, nil)
		if res.Top != nil {
			r.trie.InsertWalk(res.Top, nil)
			tops = append(tops, k)
		}
	}
	if len(tops) < 5 {
		t.Skip("too few top-level nodes")
	}
	// For any query, Pred must return the exact top-level predecessor.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		q := uint64(rng.Intn(21000))
		n := r.trie.Pred(q, false, nil)
		var want uint64
		haveWant := false
		for _, k := range tops {
			if k <= q {
				want, haveWant = k, true
			}
		}
		if haveWant != n.IsData() {
			t.Fatalf("Pred(%d): got data=%v, want %v", q, n.IsData(), haveWant)
		}
		if haveWant && n.Key() != want {
			t.Fatalf("Pred(%d) = %d, want %d", q, n.Key(), want)
		}
	}
}

func TestStrictPred(t *testing.T) {
	r := newRig(8)
	// Force keys into the trie by inserting many; then query strictly.
	for k := uint64(0); k < 256; k++ {
		r.insert(k)
	}
	for q := uint64(1); q < 256; q++ {
		n := r.trie.Pred(q, true, nil)
		if n.IsData() && n.Key() >= q {
			t.Fatalf("strict Pred(%d) returned %d", q, n.Key())
		}
	}
	// Non-strict may return the key itself when it is a top node.
	n := r.trie.Pred(0, true, nil)
	if n.IsData() {
		t.Fatalf("strict Pred(0) returned data node %d", n.Key())
	}
}

func TestWidthOneUniverse(t *testing.T) {
	r := newRig(1)
	if !r.insert(0) || !r.insert(1) {
		t.Fatal("inserts failed")
	}
	if got, ok := r.pred(1); !ok || got != 1 {
		t.Fatalf("pred(1) = %d, %v", got, ok)
	}
	if got, ok := r.pred(0); !ok || got != 0 {
		t.Fatalf("pred(0) = %d, %v", got, ok)
	}
	if !r.delete(0) || !r.delete(1) {
		t.Fatal("deletes failed")
	}
	r.validate(t)
}

func TestWidth64Universe(t *testing.T) {
	r := newRig(64)
	keys := []uint64{0, 1, ^uint64(0), 1 << 63, 1<<63 - 1, 0xDEADBEEF, 0xCAFEBABE00000000}
	for _, k := range keys {
		if !r.insert(k) {
			t.Fatalf("insert %x failed", k)
		}
	}
	sorted := append([]uint64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, k := range sorted {
		got, ok := r.pred(k)
		if !ok || got != k {
			t.Fatalf("pred(%x) = %x, %v", k, got, ok)
		}
		if k > 0 {
			got, ok = r.pred(k - 1)
			if i == 0 {
				if ok {
					t.Fatalf("pred(%x) should be empty", k-1)
				}
			} else if sorted[i-1] != k-1 {
				if !ok || got != sorted[i-1] {
					t.Fatalf("pred(%x) = %x, want %x", k-1, got, sorted[i-1])
				}
			}
		}
	}
	r.validate(t)
}

func TestDeleteAlternateKeysTrie(t *testing.T) {
	r := newRig(16)
	for k := uint64(0); k < 4000; k++ {
		r.insert(k * 3)
	}
	for k := uint64(0); k < 4000; k += 2 {
		r.delete(k * 3)
	}
	for k := uint64(0); k < 4000; k++ {
		want := k%2 == 1
		_, got := r.list.Find(k*3, r.trie.Pred(k*3, false, nil), nil)
		if got != want {
			t.Fatalf("contains %d = %v, want %v", k*3, got, want)
		}
	}
	r.validate(t)
}

func TestTombstoneHelping(t *testing.T) {
	// Create one top-level key, delete it, and verify a racing insert of a
	// key sharing prefixes converges to a valid trie.
	r := newRig(16)
	for i := 0; i < 40; i++ {
		// Repeat to exercise different tower-height draws.
		for k := uint64(0); k < 400; k++ {
			r.insert(k)
		}
		for k := uint64(0); k < 400; k++ {
			r.delete(k)
		}
		if got := r.trie.PrefixCount(); got != 0 {
			t.Fatalf("iteration %d: %d prefixes left", i, got)
		}
	}
	r.validate(t)
}

func TestConcurrentDisjointTrie(t *testing.T) {
	r := newRig(32)
	const workers = 8
	const perG = 800
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			base := g * 1_000_000
			for i := uint64(0); i < perG; i++ {
				if !r.insert(base + i*13) {
					t.Errorf("insert %d failed", base+i*13)
					return
				}
			}
			for i := uint64(0); i < perG; i += 2 {
				if !r.delete(base + i*13) {
					t.Errorf("delete %d failed", base+i*13)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	r.validate(t)
	for g := uint64(0); g < workers; g++ {
		base := g * 1_000_000
		for i := uint64(0); i < perG; i++ {
			want := i%2 == 1
			_, got := r.list.Find(base+i*13, r.trie.Pred(base+i*13, false, nil), nil)
			if got != want {
				t.Fatalf("key %d: contains=%v want %v", base+i*13, got, want)
			}
		}
	}
}

func TestConcurrentSameRangeChurn(t *testing.T) {
	r := newRig(16)
	const workers = 6
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 3000; i++ {
				k := uint64(rng.Intn(256))
				if rng.Intn(2) == 0 {
					r.insert(k)
				} else {
					r.delete(k)
				}
			}
		}(int64(g) + 1)
	}
	wg.Wait()
	r.validate(t)
}

func TestConcurrentQueriesDuringChurn(t *testing.T) {
	r := newRig(24)
	// Stable keys at even multiples of 1000, churn elsewhere.
	const stable = 200
	for k := uint64(0); k < stable; k++ {
		r.insert(k * 1000)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
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
				k := uint64(rng.Intn(stable-1)*1000) + 1 + uint64(rng.Intn(998))
				if rng.Intn(2) == 0 {
					r.insert(k)
				} else {
					r.delete(k)
				}
			}
		}(int64(g) + 11)
	}
	// Queries at exactly the stable keys must always succeed.
	for round := 0; round < 40; round++ {
		for k := uint64(0); k < stable; k++ {
			got, ok := r.pred(k * 1000)
			if !ok || got != k*1000 {
				close(stop)
				t.Fatalf("pred(%d) = %d, %v during churn", k*1000, got, ok)
			}
		}
	}
	close(stop)
	wg.Wait()
	r.validate(t)
}

func TestPairHelpers(t *testing.T) {
	p := Pair{}
	if !p.IsTombstone() {
		t.Fatal("empty pair is not a tombstone")
	}
	n := &skiplist.Node{}
	p = p.With(0, n)
	if p.Get(0) != n || p.Get(1) != nil || p.IsTombstone() {
		t.Fatal("With(0) misbehaved")
	}
	p = p.With(1, n).With(0, nil)
	if p.Get(0) != nil || p.Get(1) != n {
		t.Fatal("With(1)/With(0,nil) misbehaved")
	}
}
