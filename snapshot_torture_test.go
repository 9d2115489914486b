package skiptrie

import (
	"math/rand"
	"sync"
	"testing"

	"skiptrie/internal/linearize"
	"skiptrie/internal/testenv"
)

// TestSnapshotTortureStrictCompleteness is the concurrent acceptance
// test for the snapshot subsystem: writers churn shard-boundary keys
// with per-iteration values, a resharder forces Split/Merge
// continuously, and snapshot goroutines pin views mid-flight and drain
// them (keys and values, ascending and descending). Every drain is
// checked with linearize.CheckSnapshotScan against the full recorded
// history — the STRICT rules, all applied to the pin window rather
// than the drain window: every key live at the pin point must appear,
// nothing born after the pin may appear, and every value must be
// schedulable as current at the pin. The deliberate delays between pin
// and drain mean any implementation that reads live state instead of
// the pinned epoch fails the post-pin rules almost immediately.
//
// Run under -race in CI; the nightly soak lane scales the iteration counts via SKIPTRIE_TEST_SOAK.
func TestSnapshotTortureStrictCompleteness(t *testing.T) {
	const (
		w       = 16
		shards  = 4
		writers = 3
		pinners = 2
	)
	iters := testenv.Scale(400)
	snaps := testenv.Scale(20)
	s := MustNewSharded[uint64](WithWidth(w), WithShards(shards), WithMaxShards(64), WithSeed(31))
	defer s.Close()

	// Churn keys at the boundaries every reachable partition can have,
	// plus stable anchors the strict completeness rule always owes.
	step := uint64(1) << (w - 6)
	var hot []uint64
	for k := uint64(1); k < 64; k++ {
		hot = append(hot, k*step-1, k*step)
	}
	anchors := []uint64{11, 1<<15 + 5, 1<<16 - 9}
	var rec linearize.Recorder
	for _, a := range anchors {
		inv := rec.Invoke()
		s.Store(a, a)
		rec.RecordValue(linearize.Store, a, true, a, 0, inv)
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
				v := k | uint64(seed)<<48 | uint64(i)<<24
				switch rng.Intn(3) {
				case 0:
					inv := rec.Invoke()
					s.Store(k, v)
					rec.RecordValue(linearize.Store, k, true, v, 0, inv)
				case 1:
					inv := rec.Invoke()
					ok := s.Delete(k)
					rec.Record(linearize.Delete, k, ok, 0, inv)
				default:
					inv := rec.Invoke()
					got, loaded := s.LoadOrStore(k, v)
					rec.RecordValue(linearize.LoadOrStore, k, loaded, v, got, inv)
				}
			}
		}(int64(g + 1))
	}

	// Forced resharding: every snapshot overlaps drains, seals and
	// table swaps. It runs until the writers and pinners are done, so
	// it waits on its own group.
	var reWg sync.WaitGroup
	reWg.Add(1)
	go func() {
		defer reWg.Done()
		rng := rand.New(rand.NewSource(77))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := uint64(rng.Intn(1 << w))
			if rng.Intn(2) == 0 {
				_ = s.Split(k)
			} else {
				_ = s.Merge(k)
			}
		}
	}()

	type drained struct {
		scan           linearize.Scan
		pinInv, pinRet int64
	}
	scanCh := make(chan drained, pinners*snaps*2)
	for g := 0; g < pinners; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1000 + seed))
			for i := 0; i < snaps; i++ {
				pinInv := rec.Invoke()
				sn := s.Snapshot()
				pinRet := rec.Invoke()

				// Let the world churn between pin and drain: the wider
				// the gap, the more a live-read bug diverges.
				for j := 0; j < rng.Intn(64); j++ {
					_, _ = s.Load(hot[rng.Intn(len(hot))])
				}

				asc := linearize.Scan{Vals: []uint64{}}
				desc := linearize.Scan{Vals: []uint64{}, From: 1<<w - 1, Desc: true}
				it := sn.Iter()
				for ok := it.First(); ok; ok = it.Next() {
					asc.Keys = append(asc.Keys, it.Key())
					asc.Vals = append(asc.Vals, it.Value())
				}
				for ok := it.Last(); ok; ok = it.Prev() {
					desc.Keys = append(desc.Keys, it.Key())
					desc.Vals = append(desc.Vals, it.Value())
				}
				sn.Close()
				scanCh <- drained{asc, pinInv, pinRet}
				scanCh <- drained{desc, pinInv, pinRet}
			}
		}(int64(g))
	}
	wg.Wait()
	close(stop)
	reWg.Wait()
	close(scanCh)

	history := rec.History()
	n := 0
	for d := range scanCh {
		if err := linearize.CheckSnapshotScan(d.scan, d.pinInv, d.pinRet, history); err != nil {
			t.Fatalf("snapshot drain %d: %v", n, err)
		}
		n++
	}
	if n != pinners*snaps*2 {
		t.Fatalf("checked %d drains, want %d", n, pinners*snaps*2)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate after torture: %v", err)
	}
}

// TestSnapshotTortureMap runs the same strict check against the Map
// backend (one trie, no resharding): concurrent writers churn while
// pinners drain snapshots, isolating the epoch machinery from the
// shard composition above it.
func TestSnapshotTortureMap(t *testing.T) {
	const (
		w       = 14
		writers = 3
		pinners = 2
	)
	iters := testenv.Scale(400)
	snaps := testenv.Scale(20)
	m := MustNewMap[uint64](WithWidth(w), WithSeed(17))
	keys := []uint64{3, 5, 1 << 7, 1<<7 + 1, 1 << 13, 1<<14 - 2}
	var rec linearize.Recorder
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				k := keys[rng.Intn(len(keys))]
				v := k | uint64(seed)<<48 | uint64(i)<<24
				if rng.Intn(2) == 0 {
					inv := rec.Invoke()
					m.Store(k, v)
					rec.RecordValue(linearize.Store, k, true, v, 0, inv)
				} else {
					inv := rec.Invoke()
					ok := m.Delete(k)
					rec.Record(linearize.Delete, k, ok, 0, inv)
				}
			}
		}(int64(g + 1))
	}
	type drained struct {
		scan           linearize.Scan
		pinInv, pinRet int64
	}
	scanCh := make(chan drained, pinners*snaps)
	for g := 0; g < pinners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < snaps; i++ {
				pinInv := rec.Invoke()
				sn := m.Snapshot()
				pinRet := rec.Invoke()
				scan := linearize.Scan{Vals: []uint64{}}
				sn.Range(0, func(k, v uint64) bool {
					scan.Keys = append(scan.Keys, k)
					scan.Vals = append(scan.Vals, v)
					return true
				})
				sn.Close()
				scanCh <- drained{scan, pinInv, pinRet}
			}
		}()
	}
	wg.Wait()
	close(scanCh)
	history := rec.History()
	for d := range scanCh {
		if err := linearize.CheckSnapshotScan(d.scan, d.pinInv, d.pinRet, history); err != nil {
			t.Fatalf("map snapshot drain: %v", err)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}
