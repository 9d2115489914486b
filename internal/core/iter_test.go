package core

import (
	"math/rand"
	"testing"
)

func TestIterBasics(t *testing.T) {
	s := newTrie(16)
	keys := []uint64{3, 7, 1000, 4000, 65535}
	for _, k := range keys {
		s.Insert(k, k*2, nil)
	}
	it := s.MakeIter(nil)

	// Fresh cursor: Next is First, then forward walk yields everything.
	var got []uint64
	for ok := it.Next(); ok; ok = it.Next() {
		got = append(got, it.Key())
		if it.Value() != it.Key()*2 {
			t.Fatalf("value at %d = %d", it.Key(), it.Value())
		}
	}
	if len(got) != len(keys) {
		t.Fatalf("forward walk = %v, want %v", got, keys)
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("forward walk = %v, want %v", got, keys)
		}
	}

	// Fresh cursor: Prev is Last, then backward walk reverses.
	it2 := s.MakeIter(nil)
	got = got[:0]
	for ok := it2.Prev(); ok; ok = it2.Prev() {
		got = append(got, it2.Key())
	}
	for i := range keys {
		if got[len(got)-1-i] != keys[i] {
			t.Fatalf("backward walk = %v", got)
		}
	}
}

func TestIterUniverseClamping(t *testing.T) {
	s := newTrie(8) // universe [0, 256)
	s.Insert(10, 1, nil)
	s.Insert(200, 2, nil)
	it := s.MakeIter(nil)
	if !it.Seek(0) || it.Key() != 10 {
		t.Fatal("Seek(0) should land on 10")
	}
	if it.Seek(300) {
		t.Fatal("Seek above the universe succeeded")
	}
	if !it.SeekLE(300) || it.Key() != 200 {
		t.Fatal("SeekLE above the universe should clamp to max key")
	}
	if !it.Last() || it.Key() != 200 {
		t.Fatal("Last != 200")
	}
	if !it.First() || it.Key() != 10 {
		t.Fatal("First != 10")
	}
}

func TestIterBaseTranslation(t *testing.T) {
	// A sub-universe [1<<20, 1<<20 + 256): iterator keys must be public
	// keys, not base-relative offsets.
	s := New[uint64](Config{Width: 8, Base: 1 << 20, Seed: 5})
	for _, k := range []uint64{1<<20 + 3, 1<<20 + 99} {
		s.Insert(k, k, nil)
	}
	it := s.MakeIter(nil)
	if !it.Seek(0) {
		t.Fatal("Seek(0) found nothing")
	}
	if it.Key() != 1<<20+3 {
		t.Fatalf("Seek(0) = %d", it.Key())
	}
	if !it.Next() || it.Key() != 1<<20+99 {
		t.Fatalf("Next = %d", it.Key())
	}
	if it.Next() {
		t.Fatal("walked past the sub-universe")
	}
	if !it.SeekLE(1<<20+50) || it.Key() != 1<<20+3 {
		t.Fatal("SeekLE mistranslated")
	}
	if it.Prev() || it.Valid() {
		t.Fatal("Prev below base should exhaust")
	}
}

// TestIterDirectionSwitch interleaves Next and Prev: the cursor is
// bidirectional without re-seeking.
func TestIterDirectionSwitch(t *testing.T) {
	s := newTrie(16)
	for _, k := range []uint64{10, 20, 30, 40} {
		s.Insert(k, k, nil)
	}
	it := s.MakeIter(nil)
	steps := []struct {
		fwd  bool
		want uint64
	}{
		{true, 10}, {true, 20}, {true, 30}, {false, 20}, {false, 10},
		{true, 20}, {true, 30}, {true, 40}, {false, 30},
	}
	for i, st := range steps {
		var ok bool
		if st.fwd {
			ok = it.Next()
		} else {
			ok = it.Prev()
		}
		if !ok {
			t.Fatalf("step %d: cursor exhausted, want %d", i, st.want)
		}
		if it.Key() != st.want {
			t.Fatalf("step %d: landed on %d, want %d", i, it.Key(), st.want)
		}
	}
}

// TestIterVsRangeQuiesced checks the two traversal forms agree exactly
// on a quiesced trie (they share the code path, so this is a smoke
// test of the lifting).
func TestIterVsRangeQuiesced(t *testing.T) {
	s := newTrie(20)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		k := uint64(rng.Intn(1 << 20))
		s.Insert(k, k, nil)
		if i%3 == 0 {
			s.Delete(uint64(rng.Intn(1<<20)), nil)
		}
	}
	var viaRange []uint64
	s.Range(0, func(k uint64, _ uint64) bool { viaRange = append(viaRange, k); return true }, nil)
	var viaIter []uint64
	it := s.MakeIter(nil)
	for ok := it.First(); ok; ok = it.Next() {
		viaIter = append(viaIter, it.Key())
	}
	if len(viaRange) != len(viaIter) {
		t.Fatalf("Range yielded %d keys, Iter %d", len(viaRange), len(viaIter))
	}
	for i := range viaRange {
		if viaRange[i] != viaIter[i] {
			t.Fatalf("divergence at %d: Range %d, Iter %d", i, viaRange[i], viaIter[i])
		}
	}
}
