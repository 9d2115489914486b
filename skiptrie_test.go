package skiptrie

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestPublicAPIBasics(t *testing.T) {
	st := MustNew(WithWidth(32), WithSeed(1))
	if st.Width() != 32 {
		t.Fatalf("Width = %d", st.Width())
	}
	if st.Levels() != 6 {
		t.Fatalf("Levels = %d, want 6 for W=32", st.Levels())
	}
	if st.MaxKey() != 1<<32-1 {
		t.Fatalf("MaxKey = %d", st.MaxKey())
	}
	if !st.Insert(7) || st.Insert(7) {
		t.Fatal("insert semantics broken")
	}
	if !st.Contains(7) || st.Contains(8) {
		t.Fatal("contains semantics broken")
	}
	if k, ok := st.Predecessor(100); !ok || k != 7 {
		t.Fatalf("Predecessor(100) = %d, %v", k, ok)
	}
	if !st.Delete(7) || st.Delete(7) {
		t.Fatal("delete semantics broken")
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultWidth64(t *testing.T) {
	st := MustNew()
	if st.Width() != 64 {
		t.Fatalf("default Width = %d", st.Width())
	}
	if !st.Insert(^uint64(0)) {
		t.Fatal("insert of max key failed")
	}
	if k, ok := st.Max(); !ok || k != ^uint64(0) {
		t.Fatalf("Max = %d, %v", k, ok)
	}
}

func TestWidthValidation(t *testing.T) {
	if _, err := New(WithWidth(0)); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("WithWidth(0) err = %v", err)
	}
	if _, err := New(WithWidth(100)); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("WithWidth(100) err = %v", err)
	}
	if got := MustNew(WithWidth(64)).Width(); got != 64 {
		t.Fatalf("WithWidth(64) -> %d", got)
	}
}

func TestKeysAndRange(t *testing.T) {
	st := MustNew(WithWidth(16))
	want := []uint64{3, 14, 15, 92, 653}
	for _, k := range want {
		st.Insert(k)
	}
	got := st.Keys()
	if len(got) != len(want) {
		t.Fatalf("Keys = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
	var fromRange []uint64
	st.Range(15, func(k uint64) bool {
		fromRange = append(fromRange, k)
		return k < 92 // stop after visiting 92
	})
	if len(fromRange) != 2 || fromRange[0] != 15 || fromRange[1] != 92 {
		t.Fatalf("Range(15) = %v", fromRange)
	}
}

func TestMinMax(t *testing.T) {
	st := MustNew(WithWidth(20))
	for _, k := range []uint64{500, 1, 999999} {
		st.Insert(k)
	}
	if k, ok := st.Min(); !ok || k != 1 {
		t.Fatalf("Min = %d, %v", k, ok)
	}
	if k, ok := st.Max(); !ok || k != 999999 {
		t.Fatalf("Max = %d, %v", k, ok)
	}
	st.Delete(1)
	st.Delete(999999)
	if k, ok := st.Min(); !ok || k != 500 {
		t.Fatalf("Min = %d, %v", k, ok)
	}
	if k, ok := st.Max(); !ok || k != 500 {
		t.Fatalf("Max = %d, %v", k, ok)
	}
}

// Property: for any set of keys and any query, Predecessor agrees with the
// sorted-slice definition.
func TestPredecessorQuick(t *testing.T) {
	f := func(keys []uint64, queries []uint64) bool {
		st := MustNew(WithWidth(64))
		set := map[uint64]bool{}
		for _, k := range keys {
			st.Insert(k)
			set[k] = true
		}
		var sorted []uint64
		for k := range set {
			sorted = append(sorted, k)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range queries {
			idx := sort.Search(len(sorted), func(i int) bool { return sorted[i] > q })
			got, ok := st.Predecessor(q)
			if idx == 0 {
				if ok {
					return false
				}
			} else if !ok || got != sorted[idx-1] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Successor and StrictSuccessor are consistent with Predecessor
// duality: succ(x) > pred-strict(succ(x)) etc.
func TestSuccessorQuick(t *testing.T) {
	f := func(keys []uint16, q uint16) bool {
		st := MustNew(WithWidth(16))
		set := map[uint64]bool{}
		for _, k := range keys {
			st.Insert(uint64(k))
			set[uint64(k)] = true
		}
		var sorted []uint64
		for k := range set {
			sorted = append(sorted, k)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		idx := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= uint64(q) })
		got, ok := st.Successor(uint64(q))
		if idx == len(sorted) {
			return !ok
		}
		return ok && got == sorted[idx]
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: insert/delete round-trips leave the structure equal to the
// model set, for every universe width.
func TestInsertDeleteQuick(t *testing.T) {
	f := func(ops []uint16, widthSeed uint8) bool {
		widths := []int{4, 8, 12, 16}
		w := widths[int(widthSeed)%len(widths)]
		st := MustNew(WithWidth(w))
		model := map[uint64]bool{}
		mask := uint64(1)<<w - 1
		for i, o := range ops {
			k := uint64(o) & mask
			if i%2 == 0 {
				if st.Insert(k) != !model[k] {
					return false
				}
				model[k] = true
			} else {
				if st.Delete(k) != model[k] {
					return false
				}
				delete(model, k)
			}
		}
		if st.Len() != len(model) {
			return false
		}
		return st.Validate() == nil
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMetricsRecorded(t *testing.T) {
	m := &Metrics{}
	st := MustNew(WithWidth(32), WithMetrics(m))
	for k := uint64(0); k < 3000; k++ {
		st.Insert(k * 1_000_003 % (1 << 32))
	}
	for q := uint64(0); q < 1000; q++ {
		st.Predecessor(q * 4_000_000)
	}
	sn := m.Snapshot()
	if sn.Ops[OpInsert] != 3000 {
		t.Fatalf("insert ops = %d", sn.Ops[OpInsert])
	}
	if sn.Ops[OpPredecessor] != 1000 {
		t.Fatalf("pred ops = %d", sn.Ops[OpPredecessor])
	}
	if sn.AvgSteps(OpPredecessor) <= 0 {
		t.Fatal("no predecessor steps recorded")
	}
	if sn.Probes == 0 || sn.Hops == 0 {
		t.Fatalf("missing component counts: %+v", sn)
	}
	// Trie touch rate should be roughly 1/32 of inserts.
	if sn.Touches == 0 || sn.Touches > 3000/4 {
		t.Fatalf("touches = %d", sn.Touches)
	}
	if got := sn.TotalOps(); got != 4000 {
		t.Fatalf("TotalOps = %d", got)
	}
}

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	m.record(OpInsert, nil)
	m.recordN(OpInsert, 2, nil)
	if sn := m.Snapshot(); sn.TotalOps() != 0 {
		t.Fatal("nil Metrics snapshot not empty")
	}
	st := MustNew(WithWidth(8)) // no metrics attached
	st.Insert(1)
	st.Predecessor(1)
}

func TestOpKindString(t *testing.T) {
	names := map[OpKind]string{
		OpPredecessor: "predecessor",
		OpInsert:      "insert",
		OpDelete:      "delete",
		OpContains:    "contains",
		OpSuccessor:   "successor",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if OpKind(250).String() == "" {
		t.Error("unknown kind has empty name")
	}
}

func TestConcurrentPublicAPI(t *testing.T) {
	st := MustNew(WithWidth(32), WithSeed(7))
	var wg sync.WaitGroup
	const workers = 8
	const perG = 1000
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			base := g << 20
			for i := 0; i < perG; i++ {
				k := base + uint64(rng.Intn(1<<20))
				switch rng.Intn(4) {
				case 0:
					st.Insert(k)
				case 1:
					st.Delete(k)
				case 2:
					st.Contains(k)
				case 3:
					st.Predecessor(k)
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEagerOptionWorks(t *testing.T) {
	st := MustNew(WithWidth(16), WithEagerPrevRepair())
	for k := uint64(0); k < 2000; k++ {
		st.Insert(k)
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDeleteValidate(t *testing.T) {
	st := MustNew(WithWidth(16))
	for k := uint64(0); k < 2000; k++ {
		st.Insert(k)
		if k%3 == 0 {
			st.Delete(k)
		}
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}
