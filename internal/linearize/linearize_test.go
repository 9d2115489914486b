package linearize

import (
	"math/rand"
	"sync"
	"testing"

	"skiptrie/internal/core"
)

func ev(t OpType, key uint64, ok bool, res uint64, inv, ret int64) Event {
	return Event{Type: t, Key: key, Ok: ok, Res: res, Invoke: inv, Return: ret}
}

func TestEmptyHistory(t *testing.T) {
	ok, err := Check(nil)
	if err != nil || !ok {
		t.Fatalf("empty history: %v, %v", ok, err)
	}
}

func TestSequentialHistoryAccepted(t *testing.T) {
	h := []Event{
		ev(Insert, 5, true, 0, 1, 2),
		ev(Contains, 5, true, 0, 3, 4),
		ev(Delete, 5, true, 0, 5, 6),
		ev(Contains, 5, false, 0, 7, 8),
		ev(Insert, 5, true, 0, 9, 10),
	}
	ok, err := Check(h)
	if err != nil || !ok {
		t.Fatalf("valid sequential history rejected: %v, %v", ok, err)
	}
}

func TestSequentialHistoryRejected(t *testing.T) {
	// contains(5) = true before any insert: impossible.
	h := []Event{
		ev(Contains, 5, true, 0, 1, 2),
		ev(Insert, 5, true, 0, 3, 4),
	}
	ok, err := Check(h)
	if err != nil || ok {
		t.Fatalf("invalid history accepted: %v, %v", ok, err)
	}
}

func TestConcurrentReorderingAccepted(t *testing.T) {
	// insert(5) and contains(5)=true overlap: contains may linearize after.
	h := []Event{
		ev(Insert, 5, true, 0, 1, 4),
		ev(Contains, 5, true, 0, 2, 3),
	}
	ok, err := Check(h)
	if err != nil || !ok {
		t.Fatalf("overlapping reorder rejected: %v, %v", ok, err)
	}
}

func TestRealTimeOrderEnforced(t *testing.T) {
	// contains(5)=true strictly before insert(5): must reject even though a
	// reordering would satisfy it.
	h := []Event{
		ev(Contains, 5, true, 0, 1, 2),
		ev(Insert, 5, true, 0, 3, 4),
	}
	ok, _ := Check(h)
	if ok {
		t.Fatal("real-time order violated but history accepted")
	}
}

func TestDoubleInsertRejected(t *testing.T) {
	h := []Event{
		ev(Insert, 5, true, 0, 1, 2),
		ev(Insert, 5, true, 0, 3, 4), // second must have returned false
	}
	ok, _ := Check(h)
	if ok {
		t.Fatal("two successful non-overlapping inserts accepted")
	}
}

func TestPredecessorSemantics(t *testing.T) {
	h := []Event{
		ev(Insert, 10, true, 0, 1, 2),
		ev(Insert, 20, true, 0, 3, 4),
		ev(Predecessor, 15, true, 10, 5, 6),
		ev(Predecessor, 25, true, 20, 7, 8),
		ev(Predecessor, 5, false, 0, 9, 10),
	}
	ok, err := Check(h)
	if err != nil || !ok {
		t.Fatalf("valid predecessor history rejected: %v, %v", ok, err)
	}
	// Wrong predecessor result must be rejected.
	bad := append([]Event(nil), h...)
	bad[2] = ev(Predecessor, 15, true, 20, 5, 6)
	ok, _ = Check(bad)
	if ok {
		t.Fatal("wrong predecessor result accepted")
	}
}

func TestConcurrentPredecessorWindow(t *testing.T) {
	// pred(15) overlapping insert(12) may return 10 or 12.
	base := []Event{
		ev(Insert, 10, true, 0, 1, 2),
		ev(Insert, 12, true, 0, 3, 6),
	}
	for _, res := range []uint64{10, 12} {
		h := append(append([]Event(nil), base...), ev(Predecessor, 15, true, res, 4, 5))
		ok, err := Check(h)
		if err != nil || !ok {
			t.Fatalf("pred=%d rejected: %v, %v", res, ok, err)
		}
	}
	// But 11 was never inserted.
	h := append(append([]Event(nil), base...), ev(Predecessor, 15, true, 11, 4, 5))
	if ok, _ := Check(h); ok {
		t.Fatal("impossible predecessor accepted")
	}
}

func TestTooLongHistoryErrors(t *testing.T) {
	h := make([]Event, 65)
	for i := range h {
		h[i] = ev(Contains, 1, false, 0, int64(2*i+1), int64(2*i+2))
	}
	if _, err := Check(h); err == nil {
		t.Fatal("oversized history did not error")
	}
}

func TestOpTypeString(t *testing.T) {
	for _, tc := range []struct {
		t    OpType
		want string
	}{{Insert, "insert"}, {Delete, "delete"}, {Contains, "contains"}, {Predecessor, "predecessor"}} {
		if tc.t.String() != tc.want {
			t.Errorf("%d.String() = %q", tc.t, tc.t.String())
		}
	}
}

// TestSkipTrieHistoriesLinearizable records many small concurrent runs
// against the real SkipTrie and checks each history.
func TestSkipTrieHistoriesLinearizable(t *testing.T) {
	const (
		runs    = 60
		workers = 3
		perG    = 5
		keys    = 4
	)
	for run := 0; run < runs; run++ {
		st := core.NewSet(core.Config{Width: 8, Seed: uint64(run + 1)})
		rec := &Recorder{}
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < perG; i++ {
					k := uint64(rng.Intn(keys)) * 16
					inv := rec.Invoke()
					switch rng.Intn(4) {
					case 0:
						ok := st.Add(k, nil)
						rec.Record(Insert, k, ok, 0, inv)
					case 1:
						ok := st.Delete(k, nil)
						rec.Record(Delete, k, ok, 0, inv)
					case 2:
						ok := st.Contains(k, nil)
						rec.Record(Contains, k, ok, 0, inv)
					default:
						res, _, ok := st.Predecessor(k+8, nil)
						rec.Record(Predecessor, k+8, ok, res, inv)
					}
				}
			}(int64(run*100 + g))
		}
		wg.Wait()
		h := rec.History()
		ok, err := Check(h)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if !ok {
			for _, e := range h {
				t.Logf("  %v", e)
			}
			t.Fatalf("run %d: history not linearizable", run)
		}
	}
}

// TestSkipTrieInsertDeleteHistories records histories of inserts and
// deletes alone, on four keys 8 apart.
func TestSkipTrieInsertDeleteHistories(t *testing.T) {
	const runs = 30
	for run := 0; run < runs; run++ {
		st := core.NewSet(core.Config{Width: 8, Seed: uint64(run + 77)})
		rec := &Recorder{}
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 5; i++ {
					k := uint64(rng.Intn(4)) * 8
					inv := rec.Invoke()
					if rng.Intn(2) == 0 {
						ok := st.Add(k, nil)
						rec.Record(Insert, k, ok, 0, inv)
					} else {
						ok := st.Delete(k, nil)
						rec.Record(Delete, k, ok, 0, inv)
					}
				}
			}(int64(run*31 + g))
		}
		wg.Wait()
		ok, err := Check(rec.History())
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if !ok {
			t.Fatalf("run %d: history not linearizable", run)
		}
	}
}
