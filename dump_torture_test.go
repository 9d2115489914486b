package skiptrie

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"skiptrie/internal/linearize"
	"skiptrie/internal/testenv"
)

// TestDumpTortureCrashMidDump is the concurrent acceptance test for
// persistence: writers churn a sharded map and a resharder forces
// Split/Merge while a pinned snapshot is dumped mid-flight. The full
// stream's restore is checked against the recorded operation history
// with linearize.CheckSnapshotScan — the restored contents must be a
// schedulable view of the pin instant, despite every byte having been
// produced under churn. Then the stream is truncated at rng-chosen
// offsets ("the dumping process crashed here") and each torn restore
// must yield exactly a prefix of the full restore and report
// ErrTornDump.
//
// Run under -race in CI.
func TestDumpTortureCrashMidDump(t *testing.T) {
	const (
		w       = 16
		writers = 3
	)
	iters := testenv.Scale(600)
	s := MustNewSharded[uint64](WithWidth(w), WithShards(4), WithMaxShards(64), WithSeed(41))
	defer s.Close()

	step := uint64(1) << (w - 6)
	var hot []uint64
	for k := uint64(1); k < 64; k++ {
		hot = append(hot, k*step-1, k*step)
	}
	var rec linearize.Recorder
	for _, a := range []uint64{7, 1<<15 + 3, 1<<16 - 5} {
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
				if rng.Intn(3) == 0 {
					inv := rec.Invoke()
					ok := s.Delete(k)
					rec.Record(linearize.Delete, k, ok, 0, inv)
				} else {
					inv := rec.Invoke()
					s.Store(k, v)
					rec.RecordValue(linearize.Store, k, true, v, 0, inv)
				}
			}
		}(int64(g + 1))
	}
	var reWg sync.WaitGroup
	reWg.Add(1)
	go func() {
		defer reWg.Done()
		rng := rand.New(rand.NewSource(99))
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

	// Pin and dump mid-churn: every byte of the stream is produced
	// while writers mutate and shards reshape.
	pinInv := rec.Invoke()
	sn := s.Snapshot()
	pinRet := rec.Invoke()
	var buf bytes.Buffer
	if _, err := sn.Dump(&buf, Uint64Codec()); err != nil {
		t.Fatalf("Dump under churn: %v", err)
	}
	sn.Close()

	wg.Wait()
	close(stop)
	reWg.Wait()
	stream := buf.Bytes()

	// The complete stream restores to a schedulable view of the pin.
	full := MustNewMap[uint64](WithWidth(w))
	if _, err := full.Restore(bytes.NewReader(stream), Uint64Codec()); err != nil {
		t.Fatalf("full Restore: %v", err)
	}
	scan := linearize.Scan{Vals: []uint64{}}
	full.Range(0, func(k, v uint64) bool {
		scan.Keys = append(scan.Keys, k)
		scan.Vals = append(scan.Vals, v)
		return true
	})
	if err := linearize.CheckSnapshotScan(scan, pinInv, pinRet, rec.History()); err != nil {
		t.Fatalf("restored dump is not the pinned view: %v", err)
	}

	// Crash-mid-dump: truncated streams restore to exact prefixes.
	rng := rand.New(rand.NewSource(7))
	cuts := []int{0, 1, 7, 8, len(stream) - 1}
	for i := 0; i < 40; i++ {
		cuts = append(cuts, rng.Intn(len(stream)))
	}
	for _, cut := range cuts {
		fresh := MustNewMap[uint64](WithWidth(w))
		_, err := fresh.Restore(bytes.NewReader(stream[:cut]), Uint64Codec())
		if !errors.Is(err, ErrTornDump) {
			t.Fatalf("cut %d: err = %v, want ErrTornDump", cut, err)
		}
		i := 0
		bad := false
		fresh.Range(0, func(k, v uint64) bool {
			if i >= len(scan.Keys) || scan.Keys[i] != k || scan.Vals[i] != v {
				bad = true
				return false
			}
			i++
			return true
		})
		if bad {
			t.Fatalf("cut %d: torn restore is not a prefix of the full view", cut)
		}
	}
}
