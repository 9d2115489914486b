package core

import (
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"skiptrie/internal/skiplist"
	"skiptrie/internal/stats"
)

// newTrie builds the tests' default trie.
func newTrie(w uint8) *SkipTrie[uint64] {
	return New[uint64](Config{Width: w, Seed: 13})
}

func TestEmpty(t *testing.T) {
	s := newTrie(32)
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Contains(5, nil) {
		t.Fatal("empty contains 5")
	}
	if _, _, ok := s.Predecessor(5, nil); ok {
		t.Fatal("empty has predecessor")
	}
	if _, _, ok := s.Successor(5, nil); ok {
		t.Fatal("empty has successor")
	}
	if _, _, ok := s.Min(nil); ok {
		t.Fatal("empty has min")
	}
	if _, _, ok := s.Max(nil); ok {
		t.Fatal("empty has max")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBasicOps(t *testing.T) {
	s := newTrie(32)
	keys := []uint64{100, 5, 77, 3, 200, 4_000_000_000}
	for _, k := range keys {
		if !s.Insert(k, k*10, nil) {
			t.Fatalf("insert %d failed", k)
		}
	}
	for _, k := range keys {
		if s.Insert(k, 0, nil) {
			t.Fatalf("duplicate insert %d succeeded", k)
		}
		if !s.Contains(k, nil) {
			t.Fatalf("missing %d", k)
		}
		v, ok := s.Find(k, nil)
		if !ok || v != k*10 {
			t.Fatalf("find %d = %v, %v", k, v, ok)
		}
	}
	if s.Len() != len(keys) {
		t.Fatalf("Len = %d", s.Len())
	}
	if k, _, ok := s.Min(nil); !ok || k != 3 {
		t.Fatalf("Min = %d, %v", k, ok)
	}
	if k, _, ok := s.Max(nil); !ok || k != 4_000_000_000 {
		t.Fatalf("Max = %d, %v", k, ok)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPredecessorSuccessorSemantics(t *testing.T) {
	s := newTrie(16)
	for _, k := range []uint64{10, 20, 30} {
		s.Add(k, nil)
	}
	// Predecessor: largest <= x.
	cases := []struct {
		x    uint64
		want uint64
		ok   bool
	}{
		{9, 0, false}, {10, 10, true}, {11, 10, true}, {20, 20, true},
		{29, 20, true}, {30, 30, true}, {65535, 30, true},
	}
	for _, tc := range cases {
		got, _, ok := s.Predecessor(tc.x, nil)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("Predecessor(%d) = %d,%v want %d,%v", tc.x, got, ok, tc.want, tc.ok)
		}
	}
	// StrictPredecessor: largest < x.
	if got, _, ok := s.StrictPredecessor(10, nil); ok {
		t.Errorf("StrictPredecessor(10) = %d,%v want none", got, ok)
	}
	if got, _, ok := s.StrictPredecessor(11, nil); !ok || got != 10 {
		t.Errorf("StrictPredecessor(11) = %d,%v", got, ok)
	}
	// Successor: smallest >= x.
	if got, _, ok := s.Successor(10, nil); !ok || got != 10 {
		t.Errorf("Successor(10) = %d,%v", got, ok)
	}
	if got, _, ok := s.Successor(11, nil); !ok || got != 20 {
		t.Errorf("Successor(11) = %d,%v", got, ok)
	}
	if _, _, ok := s.Successor(31, nil); ok {
		t.Error("Successor(31) should not exist")
	}
	// StrictSuccessor: smallest > x.
	if got, _, ok := s.StrictSuccessor(10, nil); !ok || got != 20 {
		t.Errorf("StrictSuccessor(10) = %d,%v", got, ok)
	}
	if _, _, ok := s.StrictSuccessor(30, nil); ok {
		t.Error("StrictSuccessor(30) should not exist")
	}
	if _, _, ok := s.StrictSuccessor(^uint64(0), nil); ok {
		t.Error("StrictSuccessor(max) should not exist")
	}
}

func TestUniverseBounds(t *testing.T) {
	s := newTrie(8)
	if s.Add(256, nil) {
		t.Fatal("inserted key outside universe")
	}
	if s.Add(1<<40, nil) {
		t.Fatal("inserted key outside universe")
	}
	if !s.Add(255, nil) {
		t.Fatal("max in-universe key rejected")
	}
	if s.Contains(256, nil) {
		t.Fatal("contains out-of-universe key")
	}
	// Predecessor of an out-of-universe x clamps to the universe max.
	if got, _, ok := s.Predecessor(1000, nil); !ok || got != 255 {
		t.Fatalf("Predecessor(1000) = %d, %v", got, ok)
	}
	if s.MaxKey() != 255 {
		t.Fatalf("MaxKey = %d", s.MaxKey())
	}
}

func TestFullWidthUniverse(t *testing.T) {
	s := newTrie(64)
	keys := []uint64{0, 1, ^uint64(0), 1 << 63, 0xFFFF_FFFF}
	for _, k := range keys {
		if !s.Add(k, nil) {
			t.Fatalf("insert %x failed", k)
		}
	}
	if got, _, ok := s.Predecessor(^uint64(0), nil); !ok || got != ^uint64(0) {
		t.Fatalf("Predecessor(max) = %x, %v", got, ok)
	}
	if got, _, ok := s.StrictPredecessor(^uint64(0), nil); !ok || got != 1<<63 {
		t.Fatalf("StrictPredecessor(max) = %x, %v", got, ok)
	}
	if got, _, ok := s.Max(nil); !ok || got != ^uint64(0) {
		t.Fatalf("Max = %x, %v", got, ok)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRange(t *testing.T) {
	s := newTrie(16)
	for k := uint64(0); k < 100; k += 10 {
		s.Insert(k, k, nil)
	}
	var got []uint64
	s.Range(25, func(k uint64, v uint64) bool {
		got = append(got, k)
		return true
	}, nil)
	want := []uint64{30, 40, 50, 60, 70, 80, 90}
	if len(got) != len(want) {
		t.Fatalf("Range visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range visited %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	s.Range(0, func(uint64, uint64) bool { n++; return n < 3 }, nil)
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestDifferentialRandom(t *testing.T) {
	widths := []uint8{8, 12, 16, 32}
	for _, w := range widths {
		s := newTrie(w)
		model := map[uint64]bool{}
		space := uint64(1) << 10
		if w < 10 {
			space = 1 << w
		}
		rng := rand.New(rand.NewSource(int64(w) * 1009))
		for i := 0; i < 20000; i++ {
			k := rng.Uint64() % space
			switch rng.Intn(4) {
			case 0:
				if got, want := s.Add(k, nil), !model[k]; got != want {
					t.Fatalf("w=%d op %d: insert %d = %v want %v", w, i, k, got, want)
				}
				model[k] = true
			case 1:
				if got, want := s.Delete(k, nil), model[k]; got != want {
					t.Fatalf("w=%d op %d: delete %d = %v want %v", w, i, k, got, want)
				}
				delete(model, k)
			case 2:
				if got := s.Contains(k, nil); got != model[k] {
					t.Fatalf("w=%d op %d: contains %d = %v want %v", w, i, k, got, model[k])
				}
			case 3:
				var keys []uint64
				for mk := range model {
					keys = append(keys, mk)
				}
				sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
				var want uint64
				haveWant := false
				for _, mk := range keys {
					if mk <= k {
						want, haveWant = mk, true
					}
				}
				got, _, ok := s.Predecessor(k, nil)
				if ok != haveWant || (ok && got != want) {
					t.Fatalf("w=%d op %d: pred(%d) = %d,%v want %d,%v", w, i, k, got, ok, want, haveWant)
				}
			}
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
	}
}

// ceilLog2 returns ⌈log2 w⌉ for w >= 1.
func ceilLog2(w uint8) int { return bits.Len8(w - 1) }

// probeBound is the most hash probes the tests allow one search:
// 2⌈log2 W⌉+2, the x-fast search's O(log log u) worst case
// (2⌈log2 W⌉, see xfast.LowestAncestor) with two probes to spare.
func probeBound(w uint8) uint64 { return uint64(2*ceilLog2(w) + 2) }

func TestStatsAccounting(t *testing.T) {
	s := newTrie(32)
	for k := uint64(0); k < 5000; k++ {
		s.Add(k*977, nil)
	}
	var op stats.Op
	s.Predecessor(2_000_000, &op)
	if op.Steps() == 0 {
		t.Fatal("predecessor recorded no steps")
	}
	if op.HashProbes == 0 {
		t.Fatal("predecessor recorded no hash probes")
	}
	if op.HashProbes > probeBound(32) {
		t.Fatalf("predecessor used %d probes, want at most %d", op.HashProbes, probeBound(32))
	}
	// Insert accounting marks trie touches only for top-level towers.
	touched, total := 0, 2000
	for k := uint64(0); k < uint64(total); k++ {
		var ins stats.Op
		s.Add(k*977+13, &ins)
		if ins.TrieTouch {
			touched++
		}
	}
	// P(top) = 1/32; expect ~62, allow a wide band.
	if touched < total/32/4 || touched > total/32*4 {
		t.Fatalf("trie touched on %d/%d inserts, want about %d", touched, total, total/32)
	}
}

func TestSpaceStats(t *testing.T) {
	s := newTrie(32)
	const n = 1 << 14
	for k := uint64(0); k < n; k++ {
		s.Add(k*261_419, nil)
	}
	sp := s.Space()
	if sp.Keys != n {
		t.Fatalf("Keys = %d", sp.Keys)
	}
	// Tower nodes ~ 2n (geometric series), certainly under 3n.
	if sp.TowerNodes < n || sp.TowerNodes > 3*n {
		t.Fatalf("TowerNodes = %d for %d keys", sp.TowerNodes, n)
	}
	// Trie prefixes ~ W * n/W = n in expectation; allow [n/4, 4n].
	if sp.TriePrefix < n/4 || sp.TriePrefix > 4*n {
		t.Fatalf("TriePrefix = %d for %d keys", sp.TriePrefix, n)
	}
}

func TestTopGapsGeometric(t *testing.T) {
	s := newTrie(32)
	const n = 1 << 15
	for k := uint64(0); k < n; k++ {
		s.Add(k*104_729, nil)
	}
	gaps := s.TopGaps()
	if len(gaps) < 100 {
		t.Fatalf("only %d gaps", len(gaps))
	}
	sum := 0
	for _, g := range gaps {
		sum += g
	}
	mean := float64(sum) / float64(len(gaps))
	// Expected mean gap = 2^(levels-1) - 1 = 31 for W=32; allow [16, 64].
	if mean < 16 || mean > 64 {
		t.Fatalf("mean top-level gap = %.1f, want about 31", mean)
	}
}

func TestDeleteAlternateKeys(t *testing.T) {
	s := NewSet(Config{Width: 16, Seed: 3})
	for k := uint64(0); k < 5000; k++ {
		s.Add(k, nil)
	}
	for k := uint64(0); k < 5000; k += 2 {
		if !s.Delete(k, nil) {
			t.Fatalf("delete %d failed", k)
		}
	}
	for k := uint64(0); k < 5000; k++ {
		if got, want := s.Contains(k, nil), k%2 == 1; got != want {
			t.Fatalf("contains %d = %v", k, got)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEagerRepair(t *testing.T) {
	s := NewSet(Config{Width: 16, Repair: skiplist.RepairEager, Seed: 3})
	for k := uint64(0); k < 3000; k++ {
		s.Add(k, nil)
	}
	for k := uint64(0); k < 3000; k += 3 {
		s.Delete(k, nil)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// --- concurrency ---

func TestConcurrentDisjoint(t *testing.T) {
	s := newTrie(32)
	const workers = 8
	const perG = 1200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			base := g << 24
			for i := uint64(0); i < perG; i++ {
				if !s.Insert(base+i*37, i, nil) {
					t.Errorf("insert %d failed", base+i*37)
					return
				}
			}
			for i := uint64(0); i < perG; i += 2 {
				if !s.Delete(base+i*37, nil) {
					t.Errorf("delete %d failed", base+i*37)
					return
				}
			}
			for i := uint64(0); i < perG; i++ {
				want := i%2 == 1
				if got := s.Contains(base+i*37, nil); got != want {
					t.Errorf("contains %d = %v want %v", base+i*37, got, want)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if want := workers * perG / 2; s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
}

func TestConcurrentHotKeys(t *testing.T) {
	s := newTrie(16)
	const keys = 12
	const workers = 8
	const rounds = 1500
	var wg sync.WaitGroup
	deltas := make([][]int, workers)
	for g := 0; g < workers; g++ {
		deltas[g] = make([]int, keys)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)*31 + 7))
			for r := 0; r < rounds; r++ {
				k := uint64(rng.Intn(keys)) * 4099
				switch rng.Intn(3) {
				case 0:
					if s.Add(k, nil) {
						deltas[g][k/4099]++
					}
				case 1:
					if s.Delete(k, nil) {
						deltas[g][k/4099]--
					}
				case 2:
					s.Predecessor(k+1, nil)
				}
			}
		}(g)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		net := 0
		for g := 0; g < workers; g++ {
			net += deltas[g][k]
		}
		if net != 0 && net != 1 {
			t.Fatalf("key %d: net = %d", k, net)
		}
		if got := s.Contains(uint64(k)*4099, nil); got != (net == 1) {
			t.Fatalf("key %d: contains = %v, net = %d", k, got, net)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentMixedWithQueries(t *testing.T) {
	s := newTrie(24)
	// Pre-populate stable anchor keys at multiples of 4096.
	const anchors = 256
	for k := uint64(0); k < anchors; k++ {
		s.Add(k*4096, nil)
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
				// Churn strictly between anchors.
				k := uint64(rng.Intn(anchors-1))*4096 + 1 + uint64(rng.Intn(4094))
				if rng.Intn(2) == 0 {
					s.Add(k, nil)
				} else {
					s.Delete(k, nil)
				}
			}
		}(int64(g) * 131)
	}
	for round := 0; round < 30; round++ {
		for k := uint64(0); k < anchors; k++ {
			// Predecessor of an anchor itself must always be the anchor.
			got, _, ok := s.Predecessor(k*4096, nil)
			if !ok || got != k*4096 {
				close(stop)
				t.Fatalf("Predecessor(%d) = %d, %v during churn", k*4096, got, ok)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentRandomChurn(t *testing.T) {
	s := NewSet(Config{Width: 20, Seed: 9})
	const workers = 6
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2500; i++ {
				k := uint64(rng.Intn(2048))
				switch rng.Intn(3) {
				case 0:
					s.Add(k, nil)
				case 1:
					s.Delete(k, nil)
				default:
					s.Predecessor(k, nil)
				}
			}
		}(int64(g) + 41)
	}
	wg.Wait()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
