package shard

import (
	"math/rand"
	"sync"
	"testing"
)

// TestTortureBoundaryChurnMergeScans churns the keys at every shard
// boundary while readers drive the shard cursor across those same
// boundaries in both directions, checking strict monotonicity, value
// integrity, and that only ever-written keys appear. Run under -race in
// CI.
func TestTortureBoundaryChurnMergeScans(t *testing.T) {
	const (
		w       = 16
		shards  = 8
		writers = 4
		readers = 3
		iters   = 1500
	)
	tr := New[uint64](Config{
		Width:  w,
		Shards: shards,
		Seed:   17,
	})
	step := uint64(1) << (w - 3) // log2(shards) = 3
	valid := map[uint64]bool{}
	var boundary []uint64
	for k := uint64(1); k < shards; k++ {
		boundary = append(boundary, k*step-1, k*step)
		valid[k*step-1], valid[k*step] = true, true
	}
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				k := boundary[rng.Intn(len(boundary))]
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
			for i := 0; i < iters/10; i++ {
				last, first := uint64(0), true
				for ok := it.Seek(0); ok; ok = it.Next() {
					k := it.Key()
					if !valid[k] || it.Value() != k || (!first && k <= last) {
						t.Errorf("forward merge visited %#x (value %#x, last %#x)", k, it.Value(), last)
						return
					}
					last, first = k, false
				}
				from := boundary[rng.Intn(len(boundary))]
				prev, first := uint64(1)<<w, true
				for ok := it.SeekLE(from); ok; ok = it.Prev() {
					k := it.Key()
					if !valid[k] || k > from || (!first && k >= prev) {
						t.Errorf("backward merge from %#x visited %#x (prev %#x)", from, k, prev)
						return
					}
					prev, first = k, false
				}
			}
		}(int64(100 + g))
	}
	wg.Wait()
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate after churn: %v", err)
	}
}
