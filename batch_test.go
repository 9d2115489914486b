package skiptrie

import (
	"math/rand"
	"sync"
	"testing"
)

func TestMapStoreBatchBasics(t *testing.T) {
	m := MustNewMap[int](WithWidth(16))
	keys := []uint64{10, 3, 99, 3, 70000, 10, 42} // unsorted, dups, 70000 out of universe
	vals := []int{0, 1, 2, 3, 4, 5, 6}
	m.StoreBatch(keys, vals)

	wants := map[uint64]int{10: 5, 3: 3, 99: 2, 42: 6}
	if got := m.Len(); got != len(wants) {
		t.Fatalf("Len = %d, want %d", got, len(wants))
	}
	for k, want := range wants {
		v, ok := m.Load(k)
		if !ok {
			t.Fatalf("key %d missing", k)
		}
		if v != want {
			t.Fatalf("key %d = %d, want %d (last write in slice order wins)", k, v, want)
		}
	}
	if _, ok := m.Load(70000); ok {
		t.Fatal("out-of-universe key was stored")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("invalid after batch: %v", err)
	}
}

func TestMapStoreBatchMatchesStores(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 5000
	keys := make([]uint64, n)
	vals := make([]int, n)
	for i := range keys {
		keys[i] = uint64(r.Intn(n * 2)) // plenty of dups
		vals[i] = i
	}

	batched := MustNewMap[int](WithWidth(20))
	perKey := MustNewMap[int](WithWidth(20))
	batched.StoreBatch(keys, vals)
	for i, k := range keys {
		perKey.Store(k, vals[i])
	}

	if bl, pl := batched.Len(), perKey.Len(); bl != pl {
		t.Fatalf("batched len %d, per-key len %d", bl, pl)
	}
	perKey.Range(0, func(k uint64, want int) bool {
		v, ok := batched.Load(k)
		if !ok {
			t.Fatalf("batched map missing key %d", k)
		}
		if v != want {
			t.Fatalf("key %d: batched %d, per-key %d", k, v, want)
		}
		return true
	})
	if err := batched.Validate(); err != nil {
		t.Fatalf("invalid after batch: %v", err)
	}
}

func TestMapStoreBatchLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	MustNewMap[int]().StoreBatch([]uint64{1, 2}, []int{1})
}

func TestMapStoreBatchEmpty(t *testing.T) {
	m := MustNewMap[int]()
	m.StoreBatch(nil, nil)
	if m.Len() != 0 {
		t.Fatal("empty batch stored something")
	}
}

func TestShardedStoreBatchCrossShard(t *testing.T) {
	s := MustNewSharded[int](WithWidth(16), WithShards(8))
	r := rand.New(rand.NewSource(11))
	const n = 4000
	keys := make([]uint64, n)
	vals := make([]int, n)
	for i := range keys {
		keys[i] = uint64(r.Intn(1 << 16)) // spread across all shards
		vals[i] = i
	}
	s.StoreBatch(keys, vals)

	want := make(map[uint64]int, n)
	for i, k := range keys {
		want[k] = vals[i]
	}
	if got := s.Len(); got != len(want) {
		t.Fatalf("Len = %d, want %d", got, len(want))
	}
	for k, w := range want {
		v, ok := s.Load(k)
		if !ok || v != w {
			t.Fatalf("key %d = (%d,%v), want (%d,true)", k, v, ok, w)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid after cross-shard batch: %v", err)
	}
}

// TestShardedStoreBatchUnderReshard interleaves batches with online
// Split/Merge of the ranges the batches are landing in, so latched
// chunks land in sources between their warm copy and their seal and
// reach the new shards through the journal replay.
func TestShardedStoreBatchUnderReshard(t *testing.T) {
	s := MustNewSharded[int](WithWidth(16), WithShards(2), WithMaxShards(64))
	var wg sync.WaitGroup
	wg.Add(1)
	stop := make(chan struct{})
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := uint64(i%16) << 12
			if i%2 == 0 {
				s.Split(k)
			} else {
				s.Merge(k)
			}
		}
	}()

	r := rand.New(rand.NewSource(23))
	want := make(map[uint64]int)
	for round := 0; round < 40; round++ {
		keys := make([]uint64, 256)
		vals := make([]int, 256)
		for i := range keys {
			keys[i] = uint64(r.Intn(1 << 16))
			vals[i] = round*1000 + i
		}
		s.StoreBatch(keys, vals)
		for i, k := range keys {
			want[k] = vals[i]
		}
	}
	close(stop)
	wg.Wait()

	for k, w := range want {
		v, ok := s.Load(k)
		if !ok || v != w {
			t.Fatalf("key %d = (%d,%v), want (%d,true)", k, v, ok, w)
		}
	}
	if got := s.Len(); got != len(want) {
		t.Fatalf("Len = %d, want %d", got, len(want))
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid after batches under reshard: %v", err)
	}
}

func TestSetAddBatch(t *testing.T) {
	st := MustNew(WithWidth(16))
	st.Insert(5)
	keys := []uint64{9, 5, 1, 9, 70000, 2}
	if got := st.AddBatch(keys); got != 3 { // 9, 1, 2 new; 5 present, dup 9, out-of-universe skipped
		t.Fatalf("AddBatch returned %d, want 3", got)
	}
	for _, k := range []uint64{1, 2, 5, 9} {
		if !st.Contains(k) {
			t.Fatalf("key %d missing after AddBatch", k)
		}
	}
	if st.Contains(70000) {
		t.Fatal("out-of-universe key was added")
	}
	if got := st.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := st.AddBatch(nil); got != 0 {
		t.Fatalf("empty AddBatch returned %d", got)
	}
}

func TestStoreBatchMetrics(t *testing.T) {
	var met Metrics
	m := MustNewMap[int](WithWidth(16), WithMetrics(&met))
	keys := make([]uint64, 100)
	vals := make([]int, 100)
	for i := range keys {
		keys[i] = uint64(i)
		vals[i] = i
	}
	m.StoreBatch(keys, vals)
	sn := met.Snapshot()
	if got := sn.Ops[OpInsert]; got != 100 {
		t.Fatalf("recorded %d inserts for a 100-key batch, want 100", got)
	}
	if sn.Steps[OpInsert] == 0 {
		t.Fatal("no insert steps recorded for batch")
	}
	// AvgSteps must stay a per-key quantity: a 100-key hinted batch on a
	// small universe cannot plausibly average hundreds of steps per key.
	if avg := sn.AvgSteps(OpInsert); avg <= 0 || avg > 200 {
		t.Fatalf("AvgSteps(insert) = %v, implausible per-key figure", avg)
	}
}
