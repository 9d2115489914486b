package shard

import (
	"math/rand"
	"sync"
	"testing"
)

func snapAll(sn *Snap[uint64]) (keys, vals []uint64) {
	it := sn.MakeIter(nil)
	for ok := it.First(); ok; ok = it.Next() {
		keys = append(keys, it.Key())
		vals = append(vals, it.Value())
	}
	return
}

func eqU(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardSnapshotAcrossSplitMerge: the view pinned before a reshard
// keeps answering from the drained shards' frozen truth — no copying,
// no divergence — while the live trie serves the new partition.
func TestShardSnapshotAcrossSplitMerge(t *testing.T) {
	tr := New[uint64](Config{Width: 12, Shards: 2, MaxShards: 16, Seed: 9})
	for k := uint64(0); k < 1<<12; k += 7 {
		tr.Store(k, k, nil)
	}
	var want []uint64
	for k := uint64(0); k < 1<<12; k += 7 {
		want = append(want, k)
	}

	sn := tr.Snapshot()
	defer sn.Close()

	// Reshard under the open snapshot, with churn between steps.
	if _, err := tr.Split(0); err != nil {
		t.Fatalf("Split: %v", err)
	}
	tr.Delete(7, nil)
	if _, err := tr.Split(1 << 11); err != nil {
		t.Fatalf("Split: %v", err)
	}
	tr.Store(8, 8, nil)
	if _, err := tr.Merge(0); err != nil {
		t.Fatalf("Merge: %v", err)
	}

	keys, vals := snapAll(sn)
	if !eqU(keys, want) {
		t.Fatalf("snapshot keys diverged after reshard: %d keys, want %d", len(keys), len(want))
	}
	for i, k := range keys {
		if vals[i] != k {
			t.Fatalf("snapshot value for %d = %d", k, vals[i])
		}
	}
	// Point reads route through the snapshot's own (retired) table.
	if v, ok := sn.Load(7, nil); !ok || v != 7 {
		t.Fatalf("snapshot Load(7) = %d,%v", v, ok)
	}
	if _, ok := sn.Load(8, nil); ok {
		t.Fatal("snapshot must not see the post-pin insert")
	}
	// The live trie reflects the churn and the new partition.
	if _, ok := tr.Find(7, nil); ok {
		t.Fatal("live Find sees deleted key")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestShardSnapshotConcurrentChurn: snapshots pinned while writers and
// forced reshards churn must each equal SOME point-in-time per shard —
// checked here with the cheap invariants (strict order, no
// double-yield) plus untouched-key stability; the strict linearize
// check lives in the top-level torture.
func TestShardSnapshotConcurrentChurn(t *testing.T) {
	tr := New[uint64](Config{Width: 12, Shards: 2, MaxShards: 16, Seed: 10})
	stable := []uint64{3, 1<<11 + 3, 1<<12 - 3}
	for _, k := range stable {
		tr.Store(k, k, nil)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				k := uint64(rng.Intn(1<<12)) &^ 1 // even keys churn; stable keys are odd
				if rng.Intn(2) == 0 {
					tr.Store(k, k, nil)
				} else {
					tr.Delete(k, nil)
				}
			}
		}(int64(g + 1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := uint64(rng.Intn(1 << 12))
			if rng.Intn(2) == 0 {
				_, _ = tr.Split(k)
			} else {
				_, _ = tr.Merge(k)
			}
		}
	}()
	for i := 0; i < 40; i++ {
		sn := tr.Snapshot()
		keys, _ := snapAll(sn)
		seen := map[uint64]bool{}
		for j, k := range keys {
			if j > 0 && keys[j-1] >= k {
				t.Fatalf("snapshot scan not strictly ascending: %d after %d", k, keys[j-1])
			}
			seen[k] = true
		}
		for _, k := range stable {
			if !seen[k] {
				t.Fatalf("snapshot %d missed stable key %#x", i, k)
			}
			if v, ok := sn.Load(k, nil); !ok || v != k {
				t.Fatalf("snapshot Load(%#x) = %d,%v", k, v, ok)
			}
		}
		sn.Close()
	}
	close(stop)
	wg.Wait()
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate after churn: %v", err)
	}
}

// TestShardSnapshotCloseReleasesAllPins: every bucket's pin is dropped
// exactly once, even when the table reshards between pin and close.
func TestShardSnapshotCloseReleasesAllPins(t *testing.T) {
	tr := New[uint64](Config{Width: 10, Shards: 4, MaxShards: 16, Seed: 4})
	for k := uint64(0); k < 1<<10; k += 5 {
		tr.Store(k, k, nil)
	}
	sn := tr.Snapshot()
	pinned := sn.tab.buckets // the buckets actually pinned
	if _, err := tr.Split(0); err != nil {
		t.Fatalf("Split: %v", err)
	}
	if !sn.Close() {
		t.Fatal("first Close must report true")
	}
	if sn.Close() {
		t.Fatal("second Close must report false")
	}
	for i, b := range pinned {
		if n := b.trie.PinnedEpochs(); n != 0 {
			t.Fatalf("bucket %d still holds %d pins", i, n)
		}
	}
}
