package shard

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// contents returns the trie's key/value pairs in order.
func contents(t *Trie[uint64]) map[uint64]uint64 {
	out := map[uint64]uint64{}
	t.Range(0, func(k, v uint64) bool { out[k] = v; return true }, nil)
	return out
}

func TestSplitMergeQuiesced(t *testing.T) {
	const w = 16
	tr := New[uint64](Config{Width: w, Shards: 2, Seed: 7})
	rng := rand.New(rand.NewSource(5))
	want := map[uint64]uint64{}
	for i := 0; i < 4000; i++ {
		k := uint64(rng.Intn(1 << w))
		v := rng.Uint64()
		tr.Store(k, v, nil)
		want[k] = v
	}

	check := func(stage string) {
		t.Helper()
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: Validate: %v", stage, err)
		}
		got := contents(tr)
		if len(got) != len(want) {
			t.Fatalf("%s: %d keys, want %d", stage, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s: key %#x = %#x, want %#x", stage, k, got[k], v)
			}
		}
	}

	// Split shard 0 twice, then the upper shard once: 2 -> 5 shards.
	for i, key := range []uint64{0, 0, 1 << (w - 1)} {
		ms, err := tr.Split(key)
		if err != nil {
			t.Fatalf("Split %d: %v", i, err)
		}
		if ms.Shards != tr.Shards() || ms.Moved == 0 {
			t.Fatalf("Split %d: stats %+v, Shards()=%d", i, ms, tr.Shards())
		}
		check("after split")
	}
	if tr.Shards() != 5 {
		t.Fatalf("Shards = %d, want 5", tr.Shards())
	}
	// Partition shape: the lowest quarter split twice, the upper half
	// split once.
	infos := tr.Buckets()
	wantBits := []uint8{3, 3, 2, 2, 2}
	for i, in := range infos {
		if in.Bits != wantBits[i] {
			t.Fatalf("bucket %d bits = %d, want %d (%+v)", i, in.Bits, wantBits[i], infos)
		}
		if in.Lo != 0 && in.Lo%(1<<(w-in.Bits)) != 0 {
			t.Fatalf("bucket %d lo %#x not aligned", i, in.Lo)
		}
	}

	// Merge everything back down to one shard.
	for tr.Shards() > 1 {
		merged := false
		for _, in := range tr.Buckets() {
			if _, err := tr.Merge(in.Lo); err == nil {
				merged = true
				check("after merge")
				break
			}
		}
		if !merged {
			t.Fatalf("no merge possible at %d shards: %+v", tr.Shards(), tr.Buckets())
		}
	}
	splits, merges, moved, dur := tr.ReshardStats()
	if splits != 3 || merges != 4 || moved == 0 || dur <= 0 {
		t.Fatalf("ReshardStats = %d splits, %d merges, %d moved, %v", splits, merges, moved, dur)
	}
}

func TestSplitMergeLimits(t *testing.T) {
	tr := New[int](Config{Width: 8, Shards: 1, MaxShards: 2, Seed: 1})
	if _, err := tr.Merge(0); err == nil {
		t.Fatal("Merge on a single-shard trie succeeded")
	}
	if _, err := tr.Split(0); err != nil {
		t.Fatalf("first Split: %v", err)
	}
	if _, err := tr.Split(0); err == nil {
		t.Fatal("Split past MaxShards succeeded")
	}
	if _, err := tr.Split(1 << 8); err == nil {
		t.Fatal("Split outside the universe succeeded")
	}
	if _, err := tr.Merge(1 << 8); err == nil {
		t.Fatal("Merge outside the universe succeeded")
	}

	// A buddy split finer cannot be merged over.
	tr2 := New[int](Config{Width: 8, Shards: 2, MaxShards: 8, Seed: 1})
	if _, err := tr2.Split(0); err != nil { // lower half now 2 shards of bits 2
		t.Fatalf("Split: %v", err)
	}
	if _, err := tr2.Merge(1 << 7); err == nil {
		t.Fatal("Merge over a finer-split buddy succeeded")
	}
	// Its children merge first, then the halves.
	if _, err := tr2.Merge(0); err != nil {
		t.Fatalf("Merge children: %v", err)
	}
	if _, err := tr2.Merge(1 << 7); err != nil {
		t.Fatalf("Merge halves: %v", err)
	}
	if tr2.Shards() != 1 {
		t.Fatalf("Shards = %d, want 1", tr2.Shards())
	}
}

// TestMaxShardsFloorsAtInitial pins the MaxShards clamp: the depth
// limit never undercuts the initial shard count, and defaults to the
// package cap.
func TestMaxShardsFloorsAtInitial(t *testing.T) {
	tr := New[int](Config{Width: 16, Shards: 8, MaxShards: 2})
	if tr.MaxBits() != 3 {
		t.Fatalf("MaxBits = %d, want 3 (floored at initial)", tr.MaxBits())
	}
	tr2 := New[int](Config{Width: 16, Shards: 2})
	if tr2.MaxBits() != MaxShardBits {
		t.Fatalf("MaxBits = %d, want %d (default)", tr2.MaxBits(), MaxShardBits)
	}
	tr3 := New[int](Config{Width: 4, Shards: 2})
	if tr3.MaxBits() != 3 {
		t.Fatalf("MaxBits = %d, want 3 (width-clamped)", tr3.MaxBits())
	}
}

// TestSplitMergeUnderLoad churns the trie from several writers — each
// owning a disjoint key slice with a deterministic last write per key —
// while splits and merges continuously reshape the partition. After the
// join, contents must equal every writer's final writes exactly. Run
// under -race in CI.
func TestSplitMergeUnderLoad(t *testing.T) {
	const (
		w       = 14
		writers = 4
		keys    = 128 // per writer
		rounds  = 60
	)
	tr := New[uint64](Config{
		Width:     w,
		Shards:    2,
		MaxShards: 64,
		Seed:      3,
	})
	var wg sync.WaitGroup
	finals := make([]map[uint64]uint64, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 131))
			final := map[uint64]uint64{}
			for r := 0; r < rounds; r++ {
				for i := 0; i < keys; i++ {
					// Writer g owns keys ≡ g (mod writers): disjoint slices.
					k := (uint64(rng.Intn(1<<w))/writers)*writers + uint64(g)
					if k >= 1<<w {
						k -= writers
					}
					switch rng.Intn(3) {
					case 0:
						v := rng.Uint64()
						tr.Store(k, v, nil)
						final[k] = v
					case 1:
						tr.Delete(k, nil)
						delete(final, k)
					default:
						v, loaded := tr.LoadOrStore(k, uint64(r), nil)
						if _, present := final[k]; present != loaded {
							t.Errorf("writer %d: LoadOrStore(%#x) loaded=%v, want %v", g, k, loaded, present)
							return
						}
						if !loaded {
							final[k] = uint64(r)
						} else if v != final[k] {
							t.Errorf("writer %d: LoadOrStore(%#x) = %#x, want %#x", g, k, v, final[k])
							return
						}
					}
				}
			}
			finals[g] = final
		}(g)
	}
	// Resharder: random splits and merges, as fast as they'll go, until
	// the writers finish.
	stop := make(chan struct{})
	var reshards atomic.Int64
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		rng := rand.New(rand.NewSource(999))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := uint64(rng.Intn(1 << w))
			var err error
			if rng.Intn(2) == 0 {
				_, err = tr.Split(k)
			} else {
				_, err = tr.Merge(k)
			}
			if err == nil {
				reshards.Add(1)
			}
		}
	}()
	wg.Wait()
	close(stop)
	rwg.Wait()

	if reshards.Load() == 0 {
		t.Fatal("no reshard ever succeeded")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	want := map[uint64]uint64{}
	for _, final := range finals {
		for k, v := range final {
			want[k] = v
		}
	}
	got := contents(tr)
	if len(got) != len(want) {
		t.Fatalf("%d keys after churn, want %d (%d reshards)", len(got), len(want), reshards.Load())
	}
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			t.Fatalf("key %#x = %#x,%v want %#x", k, gv, ok, v)
		}
	}
}

// TestTortureReshardBoundaryChurn is the PR 2 boundary-churn pattern
// during continuous forced splits and merges: writers churn keys at the
// deepest possible shard boundaries while readers run the concatenating
// cursor across them in both directions and point readers probe the
// same keys. Checks strict scan monotonicity, value integrity, and that
// the partition is valid after the storm. Run under -race in CI.
func TestTortureReshardBoundaryChurn(t *testing.T) {
	const (
		w       = 16
		writers = 3
		readers = 2
		iters   = 1200
	)
	tr := New[uint64](Config{
		Width:     w,
		Shards:    4,
		MaxShards: 32,
		Seed:      17,
	})
	// Keys straddling every boundary the partition can ever have at
	// MaxShards=32: multiples of 2^(w-5).
	step := uint64(1) << (w - 5)
	valid := map[uint64]bool{}
	var hot []uint64
	for k := uint64(1); k < 32; k++ {
		hot = append(hot, k*step-1, k*step)
		valid[k*step-1], valid[k*step] = true, true
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				k := hot[rng.Intn(len(hot))]
				if rng.Intn(2) == 0 {
					tr.Store(k, k, nil)
				} else {
					tr.Delete(k, nil)
				}
			}
		}(int64(g + 1))
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			it := tr.MakeIter(nil)
			for i := 0; i < iters/20; i++ {
				last, first := uint64(0), true
				for ok := it.Seek(0); ok; ok = it.Next() {
					k := it.Key()
					if !valid[k] || it.Value() != k || (!first && k <= last) {
						t.Errorf("forward merge visited %#x (value %#x, last %#x)", k, it.Value(), last)
						return
					}
					last, first = k, false
				}
				from := hot[rng.Intn(len(hot))]
				prev, first := uint64(1)<<w, true
				for ok := it.SeekLE(from); ok; ok = it.Prev() {
					k := it.Key()
					if !valid[k] || k > from || (!first && k >= prev) {
						t.Errorf("backward merge from %#x visited %#x (prev %#x)", from, k, prev)
						return
					}
					prev, first = k, false
				}
				// Point reads stay linearizable across swaps: a hot key
				// read twice with no interleaved delete cannot vanish —
				// weaker than the linearize checker (which the public
				// torture runs) but cheap enough to run every loop.
				if k := hot[rng.Intn(len(hot))]; tr.Contains(k, nil) {
					if v, ok := tr.Find(k, nil); ok && v != k {
						t.Errorf("Find(%#x) = %#x", k, v)
						return
					}
				}
			}
		}(int64(100 + g))
	}
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		rng := rand.New(rand.NewSource(4242))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := uint64(rng.Intn(1 << w))
			if rng.Intn(3) > 0 {
				tr.Split(k)
			} else {
				tr.Merge(k)
			}
		}
	}()
	wg.Wait()
	close(stop)
	rwg.Wait()

	splits, merges, _, _ := tr.ReshardStats()
	if splits == 0 {
		t.Fatal("no split ever succeeded during the torture")
	}
	_ = merges
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate after reshard churn: %v", err)
	}
}
