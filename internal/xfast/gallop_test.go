package xfast

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"skiptrie/internal/skiplist"
	"skiptrie/internal/stats"
)

// binaryAncestor is LowestAncestor's search as the paper's Algorithm 3
// states it: probe the root prefix ε, then binary-search the proper
// prefix lengths [1, W-1]. It shares the probe and the answer rule with
// the gallop, so a difference in the returned node can only come from
// the order of the probes.
func (t *Trie) binaryAncestor(key uint64, c *stats.Op) *skiplist.Node {
	s := ancestorSearch{t: t, key: key, best: t.list.Head()}
	s.probe(0, c)
	lo, hi := 0, int(t.width)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.probe(uint8(mid), c) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return s.result()
}

// setStart points every stripe's start depth at d.
func (t *Trie) setStart(d int) {
	for i := range t.start {
		t.start[i].depth.Store(uint32(d))
	}
}

// topInsert inserts keys from k downwards until one reaches the top
// level, removing the others, and walks it into the trie.
func (r *rig) topInsert(k uint64) *skiplist.Node {
	for ; ; k-- {
		res := r.list.Insert(k, struct{}{}, nil, nil)
		if res.Top != nil {
			r.trie.InsertWalk(res.Top, nil)
			return res.Top
		}
		r.list.Delete(k, nil, nil)
	}
}

// TestStepsGallopBound runs the gallop from every start depth to every
// answer depth and checks each search's probe count against the worst
// case LowestAncestor's doc states, 2⌈log2 W⌉ (1 at W = 1). At
// quiescence the probes a search makes depend only on the start and the
// answer, so this covers every quiescent trie. One top-level key k makes
// the answer for k with bit d flipped exactly d, and for k itself W-1;
// the empty trie's answer is "no proper prefix", which adds the ε probe.
func TestStepsGallopBound(t *testing.T) {
	for _, w := range []uint8{1, 2, 8, 16, 32, 64} {
		r := newRig(w)
		bound := uint64(max(2*bits.Len8(w-1), 1))
		worst := uint64(0)
		check := func(q uint64, what string) {
			t.Helper()
			for s := 1; s <= max(int(w)-1, 1); s++ {
				r.trie.setStart(s)
				var op stats.Op
				got := r.trie.LowestAncestor(q, &op)
				if want := r.trie.binaryAncestor(q, nil); got != want {
					t.Fatalf("W=%d %s, start %d: gallop found %v, binary search %v", w, what, s, got, want)
				}
				if op.HashProbes > bound {
					t.Fatalf("W=%d %s, start %d: %d probes, want at most %d", w, what, s, op.HashProbes, bound)
				}
				worst = max(worst, op.HashProbes)
			}
		}
		check(0, "empty trie")
		k := r.topInsert(^uint64(0) >> (64 - w)).Key()
		check(k, "top-level key")
		for d := 0; d < int(w); d++ {
			check(k^(1<<(int(w)-1-d)), fmt.Sprintf("answer depth %d", d))
		}
		r.validate(t)
		t.Logf("W=%d: at most %d probes (bound %d)", w, worst, bound)
	}
}

// TestStepsGallopMatchesBinarySearch is a differential test: on a
// quiescent trie the gallop, started anywhere, returns the node the
// binary search returns. Keys are a uniform set with a dense run, so
// answer depths spread over the whole range, and some are deleted again
// so that pointers have been swung.
func TestStepsGallopMatchesBinarySearch(t *testing.T) {
	const queries = 1 << 14 // per width
	for _, w := range []uint8{2, 8, 32, 64} {
		r := newRig(w)
		rng := rand.New(rand.NewSource(int64(w)))
		mask := ^uint64(0) >> (64 - w)
		var keys []uint64
		for i := 0; i < 4096; i++ {
			k := rng.Uint64() & mask
			if i%4 == 0 {
				k = uint64(i) & mask // dense run near 0
			}
			if r.insert(k) {
				keys = append(keys, k)
			}
		}
		for _, k := range keys[:len(keys)/3] {
			r.delete(k)
		}
		r.validate(t)
		for i := 0; i < queries; i++ {
			q := rng.Uint64() & mask
			if i%2 == 0 {
				q = keys[rng.Intn(len(keys))]
			}
			if w > 1 && i%4 == 0 {
				r.trie.setStart(1 + rng.Intn(int(w)-1))
			}
			got := r.trie.LowestAncestor(q, nil)
			if want := r.trie.binaryAncestor(q, nil); got != want {
				t.Fatalf("W=%d: LowestAncestor(%x) = %v, binary search %v", w, q, got, want)
			}
		}
	}
}
