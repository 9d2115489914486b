package skiptrie

import (
	"math/rand"
	"sync"
	"testing"

	"skiptrie/internal/linearize"
	"skiptrie/internal/testenv"
)

func TestIterPublicBasics(t *testing.T) {
	m := MustNewMap[string](WithWidth(16))
	m.Store(5, "five")
	m.Store(9, "nine")
	m.Store(1000, "k")
	it := m.Iter()
	if it.Valid() {
		t.Fatal("fresh cursor claims Valid")
	}
	if !it.Seek(6) || it.Key() != 9 || it.Value() != "nine" {
		t.Fatal("Seek(6) should land on 9/nine")
	}
	if !it.Prev() || it.Key() != 5 {
		t.Fatal("Prev should land on 5")
	}
	if !it.Last() || it.Key() != 1000 {
		t.Fatal("Last should land on 1000")
	}

	sh := MustNewSharded[string](WithWidth(16), WithShards(8))
	sh.Store(5, "five")
	sh.Store(0xE000, "high")
	sit := sh.Iter()
	if !sit.Next() || sit.Key() != 5 {
		t.Fatal("fresh Next should act as First")
	}
	if !sit.Next() || sit.Key() != 0xE000 || sit.Value() != "high" {
		t.Fatal("Next should cross shards to 0xE000")
	}
	if sit.Next() || sit.Valid() {
		t.Fatal("cursor should exhaust after the last key")
	}

	st := MustNew(WithWidth(16))
	st.Insert(3)
	st.Insert(77)
	kit := st.Iter()
	if !kit.First() || kit.Key() != 3 {
		t.Fatal("set cursor First should land on 3")
	}
	if !kit.Next() || kit.Key() != 77 {
		t.Fatal("set cursor Next should land on 77")
	}
}

// TestIterSeekDeletedMidScan seeks to a key that is deleted between
// positioning and stepping: the cursor must resume on a surviving key
// without re-yielding or reversing.
func TestIterSeekDeletedMidScan(t *testing.T) {
	for _, build := range []struct {
		name string
		mk   func() interface {
			Store(uint64, uint64)
			Delete(uint64) bool
			Iter() *Iter[uint64]
		}
	}{
		{"map", func() interface {
			Store(uint64, uint64)
			Delete(uint64) bool
			Iter() *Iter[uint64]
		} {
			return MustNewMap[uint64](WithWidth(16))
		}},
		{"sharded", func() interface {
			Store(uint64, uint64)
			Delete(uint64) bool
			Iter() *Iter[uint64]
		} {
			return MustNewSharded[uint64](WithWidth(16), WithShards(8))
		}},
	} {
		t.Run(build.name, func(t *testing.T) {
			s := build.mk()
			for _, k := range []uint64{0x1000, 0x2000, 0x3000, 0xE000} {
				s.Store(k, k)
			}
			it := s.Iter()
			if !it.Seek(0x2000) || it.Key() != 0x2000 {
				t.Fatal("Seek(0x2000)")
			}
			// Delete the key under the cursor and the next one.
			if !s.Delete(0x2000) || !s.Delete(0x3000) {
				t.Fatal("deletes failed")
			}
			if !it.Next() || it.Key() != 0xE000 {
				t.Fatal("cursor did not resume past mid-scan deletions")
			}
			// And backward: the resting key is gone, Prev re-searches.
			if !s.Delete(0xE000) {
				t.Fatal("Delete(0xE000) failed")
			}
			if !it.Prev() || it.Key() != 0x1000 {
				t.Fatal("Prev did not resume on the surviving key")
			}
		})
	}
}

func TestSeqAdapters(t *testing.T) {
	m := MustNewMap[uint64](WithWidth(16))
	sh := MustNewSharded[uint64](WithWidth(16), WithShards(8))
	st := MustNew(WithWidth(16))
	keys := []uint64{2, 0x1FFF, 0x2000, 0x9000, 0xFFFF}
	for _, k := range keys {
		m.Store(k, k*3)
		sh.Store(k, k*3)
		st.Insert(k)
	}

	collect2 := func(seq func(func(uint64, uint64) bool)) (ks []uint64) {
		for k, v := range seq {
			if v != k*3 {
				t.Fatalf("value at %#x = %d", k, v)
			}
			ks = append(ks, k)
		}
		return ks
	}
	for name, got := range map[string][]uint64{
		"map all":        collect2(m.All()),
		"sharded all":    collect2(sh.All()),
		"map ascend":     collect2(m.Ascend(0)),
		"sharded ascend": collect2(sh.Ascend(0)),
	} {
		if !equalKeys(got, keys) {
			t.Fatalf("%s = %#x, want %#x", name, got, keys)
		}
	}
	// Set form yields keys only.
	var setKeys []uint64
	for k := range st.All() {
		setKeys = append(setKeys, k)
	}
	if !equalKeys(setKeys, keys) {
		t.Fatalf("set All = %#x", setKeys)
	}

	// Ascend from mid-universe and Backward, with early break.
	var asc []uint64
	for k := range st.Ascend(0x2000) {
		asc = append(asc, k)
	}
	if !equalKeys(asc, []uint64{0x2000, 0x9000, 0xFFFF}) {
		t.Fatalf("Ascend(0x2000) = %#x", asc)
	}
	var desc []uint64
	for k := range sh.Backward(0x9000) {
		desc = append(desc, k)
		if len(desc) == 2 {
			break
		}
	}
	if !equalKeys(desc, []uint64{0x9000, 0x2000}) {
		t.Fatalf("Backward(0x9000) with break = %#x", desc)
	}
}

// TestIterBoundaryChurnScanWindows is the PR 2 boundary-churn torture
// pattern upgraded with the linearize scan-window checker: writers
// churn the keys at every shard boundary — with per-iteration values,
// so stale-value bugs are observable — while readers run full
// ascending and descending scans recording key/value pairs; every scan
// window is then validated against the recorded history (strict order,
// plausible liveness, stable-key completeness, value plausibility).
// Run under -race in CI.
func TestIterBoundaryChurnScanWindows(t *testing.T) {
	const (
		w       = 16
		shards  = 8
		writers = 4
		readers = 2
	)
	// Soak mode (SKIPTRIE_TEST_SOAK, the nightly CI lane) deepens the
	// churn without duplicating the test.
	iters := testenv.Scale(400)
	scans := testenv.Scale(25)
	s := MustNewSharded[uint64](WithWidth(w), WithShards(shards), WithSeed(13))
	step := uint64(1) << (w - uint(log2(shards)))
	var boundary []uint64
	for k := uint64(1); k < shards; k++ {
		boundary = append(boundary, k*step-1, k*step)
	}
	// Stable anchors the completeness rule can bite on: two keys no
	// writer ever touches.
	anchors := []uint64{7, 0xFFF0}
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
				k := boundary[rng.Intn(len(boundary))]
				// Distinct per writer and iteration: a scan yielding a
				// value from a superseded write epoch is detectable.
				v := k | uint64(seed)<<48 | uint64(i)<<32
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

	scanCh := make(chan linearize.Scan, readers*scans*2)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < scans; i++ {
				asc := linearize.Scan{Vals: []uint64{}, Invoke: rec.Invoke()}
				it := s.Iter()
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
	wg.Wait()
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
		t.Fatalf("Validate after churn: %v", err)
	}
}

// TestIterMatchesRangeQuiesced pins iterator output to Range/Descend
// output on a quiesced structure for both backends — the property
// FuzzIterVsRange explores the input space of.
func TestIterMatchesRangeQuiesced(t *testing.T) {
	m := MustNewMap[uint64](WithWidth(16), WithSeed(4))
	sh := MustNewSharded[uint64](WithWidth(16), WithShards(8), WithSeed(6))
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(1 << 16))
		m.Store(k, k)
		sh.Store(k, k)
		if i%3 == 0 {
			d := uint64(rng.Intn(1 << 16))
			m.Delete(d)
			sh.Delete(d)
		}
	}
	for _, from := range []uint64{0, 1, 0x1FFF, 0x2000, 0x8000, 0xFFFF} {
		assertIterMatchesRange(t, "map", m.Iter(), from,
			func(fn func(uint64, uint64) bool) { m.Range(from, fn) },
			func(fn func(uint64, uint64) bool) { m.Descend(from, fn) })
		assertIterMatchesRange(t, "sharded", sh.Iter(), from,
			func(fn func(uint64, uint64) bool) { sh.Range(from, fn) },
			func(fn func(uint64, uint64) bool) { sh.Descend(from, fn) })
	}
}

func assertIterMatchesRange(t *testing.T, name string, it *Iter[uint64], from uint64,
	rangeFn, descendFn func(func(uint64, uint64) bool)) {
	t.Helper()
	var want []uint64
	rangeFn(func(k, v uint64) bool { want = append(want, k); return true })
	var got []uint64
	for ok := it.Seek(from); ok; ok = it.Next() {
		got = append(got, it.Key())
	}
	if !equalKeys(got, want) {
		t.Fatalf("%s: Iter(seek %#x) yielded %d keys, Range %d", name, from, len(got), len(want))
	}
	want = want[:0]
	descendFn(func(k, v uint64) bool { want = append(want, k); return true })
	got = got[:0]
	for ok := it.SeekLE(from); ok; ok = it.Prev() {
		got = append(got, it.Key())
	}
	if !equalKeys(got, want) {
		t.Fatalf("%s: Iter(seekLE %#x) diverged from Descend", name, from)
	}
}

func equalKeys(a, b []uint64) bool {
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
