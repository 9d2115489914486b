package skiptrie

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"skiptrie/internal/linearize"
	"skiptrie/internal/testenv"
)

func TestShardedSplitMergeManual(t *testing.T) {
	var m Metrics
	s := MustNewSharded[uint64](WithWidth(16), WithShards(2), WithMaxShards(16),
		WithSeed(3), WithMetrics(&m))
	rng := rand.New(rand.NewSource(11))
	want := map[uint64]uint64{}
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(1 << 16))
		v := rng.Uint64()
		s.Store(k, v)
		want[k] = v
	}
	verify := func(stage string) {
		t.Helper()
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: Validate: %v", stage, err)
		}
		if s.Len() != len(want) {
			t.Fatalf("%s: Len = %d, want %d", stage, s.Len(), len(want))
		}
		n := 0
		s.Range(0, func(k, v uint64) bool {
			if want[k] != v {
				t.Fatalf("%s: key %#x = %#x, want %#x", stage, k, v, want[k])
			}
			n++
			return true
		})
		if n != len(want) {
			t.Fatalf("%s: Range yielded %d keys, want %d", stage, n, len(want))
		}
	}

	if err := s.Split(0); err != nil {
		t.Fatalf("Split: %v", err)
	}
	verify("after split")
	if s.Shards() != 3 {
		t.Fatalf("Shards = %d, want 3", s.Shards())
	}
	lens := s.ShardLens()
	if len(lens) != 3 {
		t.Fatalf("ShardLens = %v", lens)
	}
	total := 0
	for _, n := range lens {
		total += n
	}
	if total != len(want) {
		t.Fatalf("ShardLens sum = %d, want %d", total, len(want))
	}
	if err := s.Merge(0); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	verify("after merge")
	if s.Shards() != 2 {
		t.Fatalf("Shards = %d, want 2", s.Shards())
	}

	sn := m.Snapshot()
	if sn.Reshard.Splits != 1 || sn.Reshard.Merges != 1 {
		t.Fatalf("Reshard counters = %+v, want 1 split, 1 merge", sn.Reshard)
	}
	if sn.Reshard.MovedKeys == 0 || sn.Reshard.MigrateTime <= 0 {
		t.Fatalf("Reshard migration stats empty: %+v", sn.Reshard)
	}

	// Depth and floor errors surface to the caller.
	s2 := MustNewSharded[int](WithWidth(8), WithShards(1), WithMaxShards(1))
	if err := s2.Split(0); err == nil {
		t.Fatal("Split past WithMaxShards succeeded")
	}
	if err := s2.Merge(0); err == nil {
		t.Fatal("Merge of the only shard succeeded")
	}
}

// TestShardedAutoReshard drives the public WithAutoReshard path: a
// parked hot range must grow the shard count, feed the skew gauge, and
// leave a valid finer partition; Close stops the balancer and is
// idempotent.
func TestShardedAutoReshard(t *testing.T) {
	const w = 16
	var m Metrics
	s := MustNewSharded[uint64](WithWidth(w), WithShards(2), WithMaxShards(64),
		WithAutoReshard(time.Millisecond), WithMetrics(&m), WithSeed(7))
	defer s.Close()

	hotBase := uint64(1) << (w - 1) // everything lands in the top half
	deadline := time.Now().Add(5 * time.Second)
	i := uint64(0)
	for s.Shards() <= 2 && time.Now().Before(deadline) {
		s.Store(hotBase+i%(1<<(w-1)), i)
		i++
	}
	if s.Shards() <= 2 {
		t.Fatalf("auto-resharding never split after %d hot stores (lens %v)", i, s.ShardLens())
	}
	// Stop the balancer before validating: Close waits out any split in
	// flight, and Validate demands quiescence.
	s.Close()
	s.Close() // idempotent
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if sn := m.Snapshot(); sn.Reshard.Splits == 0 || sn.Reshard.Skew <= 0 {
		t.Fatalf("metrics after auto-reshard: %+v", sn.Reshard)
	}
}

// TestReshardTortureScanWindows is the resharding acceptance torture:
// writers churn boundary keys with per-epoch values, readers run full
// merge scans in both directions, and a resharder forces Split and
// Merge continuously. Every scan window must pass the linearize scan
// checker — strict order, plausible liveness, stable-key completeness,
// and value plausibility — against the full recorded history. Run
// under -race in CI.
func TestReshardTortureScanWindows(t *testing.T) {
	const (
		w       = 16
		writers = 3
		readers = 2
	)
	iters := testenv.Scale(500)
	scans := testenv.Scale(20)
	s := MustNewSharded[uint64](WithWidth(w), WithShards(4), WithMaxShards(32), WithSeed(29))
	// Hot keys at every boundary the partition can have at MaxShards=32,
	// plus two stable anchors for the completeness rule.
	step := uint64(1) << (w - 5)
	var hot []uint64
	for k := uint64(1); k < 32; k++ {
		hot = append(hot, k*step-1, k*step)
	}
	anchors := []uint64{3, 0xFFF1}
	var rec linearize.Recorder
	for _, a := range anchors {
		inv := rec.Invoke()
		s.Store(a, a)
		rec.RecordValue(linearize.Store, a, true, a, 0, inv)
	}

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				k := hot[rng.Intn(len(hot))]
				v := k | uint64(seed)<<48 | uint64(i)<<32
				switch rng.Intn(4) {
				case 0, 1:
					inv := rec.Invoke()
					s.Store(k, v)
					rec.RecordValue(linearize.Store, k, true, v, 0, inv)
				case 2:
					inv := rec.Invoke()
					ok := s.Delete(k)
					rec.Record(linearize.Delete, k, ok, 0, inv)
				default:
					inv := rec.Invoke()
					got, found := s.Load(k)
					rec.RecordValue(linearize.Load, k, found, 0, got, inv)
				}
			}
		}(int64(g + 1))
	}

	scanCh := make(chan linearize.Scan, readers*scans*2)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			it := s.Iter()
			for i := 0; i < scans; i++ {
				asc := linearize.Scan{Vals: []uint64{}, Invoke: rec.Invoke()}
				for ok := it.First(); ok; ok = it.Next() {
					asc.Keys = append(asc.Keys, it.Key())
					asc.Vals = append(asc.Vals, it.Value())
				}
				asc.Return = rec.Invoke()
				scanCh <- asc

				desc := linearize.Scan{Vals: []uint64{}, From: 1<<w - 1, Desc: true, Invoke: rec.Invoke()}
				for ok := it.Last(); ok; ok = it.Prev() {
					desc.Keys = append(desc.Keys, it.Key())
					desc.Vals = append(desc.Vals, it.Value())
				}
				desc.Return = rec.Invoke()
				scanCh <- desc
			}
		}(int64(100 + g))
	}

	stop := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		rng := rand.New(rand.NewSource(8088))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := uint64(rng.Intn(1 << w))
			if rng.Intn(3) > 0 {
				s.Split(k)
			} else {
				s.Merge(k)
			}
		}
	}()
	wg.Wait()
	close(stop)
	rwg.Wait()
	close(scanCh)

	history := rec.History()
	n := 0
	for scan := range scanCh {
		if err := linearize.CheckScan(scan, history); err != nil {
			t.Fatalf("scan %d: %v", n, err)
		}
		n++
	}
	if n != readers*scans*2 {
		t.Fatalf("checked %d scans, want %d", n, readers*scans*2)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate after reshard torture: %v", err)
	}
}

// TestReshardSmallHistoriesLinearizable runs many small concurrent
// cells — a few goroutines doing Store/Load/Delete/LoadOrStore on a
// handful of keys while Split and Merge force migrations under them —
// and feeds each full history to the exponential linearizability
// checker. This is the strongest point-op check the suite has: any
// write lost, resurrected, or observed out of order by a migration
// shows up as a non-linearizable history. Run under -race in CI.
func TestReshardSmallHistoriesLinearizable(t *testing.T) {
	const (
		w       = 10
		workers = 3
		opsEach = 7
	)
	rounds := testenv.Scale(30)
	keys := []uint64{0x0FF, 0x100, 0x2FF, 0x300} // straddle splittable boundaries
	for r := 0; r < rounds; r++ {
		s := MustNewSharded[uint64](WithWidth(w), WithShards(2), WithMaxShards(8),
			WithSeed(uint64(r)))
		var rec linearize.Recorder
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(r*100 + g)))
				for i := 0; i < opsEach; i++ {
					k := keys[rng.Intn(len(keys))]
					v := uint64(g)<<32 | uint64(i) | 1
					switch rng.Intn(4) {
					case 0:
						inv := rec.Invoke()
						s.Store(k, v)
						rec.RecordValue(linearize.Store, k, true, v, 0, inv)
					case 1:
						inv := rec.Invoke()
						ok := s.Delete(k)
						rec.Record(linearize.Delete, k, ok, 0, inv)
					case 2:
						inv := rec.Invoke()
						got, found := s.Load(k)
						rec.RecordValue(linearize.Load, k, found, 0, got, inv)
					default:
						inv := rec.Invoke()
						got, loaded := s.LoadOrStore(k, v)
						rec.RecordValue(linearize.LoadOrStore, k, loaded, v, got, inv)
					}
				}
			}(g)
		}
		stop := make(chan struct{})
		var rwg sync.WaitGroup
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[rng.Intn(len(keys))]
				if rng.Intn(2) == 0 {
					s.Split(k)
				} else {
					s.Merge(k)
				}
			}
		}()
		wg.Wait()
		close(stop)
		rwg.Wait()

		history := rec.History()
		ok, err := linearize.Check(history)
		if err != nil {
			t.Fatalf("round %d: Check: %v", r, err)
		}
		if !ok {
			for _, e := range history {
				t.Logf("  %v", e)
			}
			t.Fatalf("round %d: history not linearizable under forced resharding", r)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("round %d: Validate: %v", r, err)
		}
	}
}
