package core

import (
	"testing"
)

// pinned is a view pinned at one epoch of one trie: the pin plus the
// read surface (FindAt, MakeSnapIter, DiffEpochs) that the snapshot
// handles in internal/shard bundle per bucket.
type pinned struct {
	s  *SkipTrie[uint64]
	at uint64
}

func pin(s *SkipTrie[uint64]) pinned { return pinned{s: s, at: s.PinEpoch()} }

func (p pinned) load(key uint64) (uint64, bool) { return p.s.FindAt(key, p.at, nil) }

func (p pinned) iter() Iter[uint64] { return p.s.MakeSnapIter(p.at, nil) }

func (p pinned) release() { p.s.ReleaseEpoch(p.at) }

func snapKeys(p pinned) []uint64 {
	it := p.iter()
	var out []uint64
	for ok := it.First(); ok; ok = it.Next() {
		out = append(out, it.Key())
	}
	return out
}

func eqU64(a, b []uint64) bool {
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

// TestSnapshotBasic: the pinned view is frozen while the live trie
// moves on; point reads and both scan directions agree with it.
func TestSnapshotBasic(t *testing.T) {
	s := New[uint64](Config{Width: 16, Seed: 3})
	for _, k := range []uint64{5, 10, 15, 20} {
		s.Store(k, k*10, nil)
	}
	sn := pin(s)
	defer sn.release()

	s.Delete(10, nil)
	s.Store(25, 250, nil)
	s.Store(15, 999, nil) // overwrite after the pin

	if got := snapKeys(sn); !eqU64(got, []uint64{5, 10, 15, 20}) {
		t.Fatalf("snapshot keys = %v", got)
	}
	if v, ok := sn.load(10); !ok || v != 100 {
		t.Fatalf("snapshot Load(10) = %d,%v want 100,true", v, ok)
	}
	if v, ok := sn.load(15); !ok || v != 150 {
		t.Fatalf("snapshot Load(15) = %d,%v want pre-overwrite 150", v, ok)
	}
	if _, ok := sn.load(25); ok {
		t.Fatal("snapshot must not see the post-pin insert")
	}
	// Descending over the same view.
	it := sn.iter()
	var desc []uint64
	for ok := it.Last(); ok; ok = it.Prev() {
		desc = append(desc, it.Key())
	}
	if !eqU64(desc, []uint64{20, 15, 10, 5}) {
		t.Fatalf("snapshot descend = %v", desc)
	}
	// The live trie meanwhile reflects all updates.
	if _, ok := s.Find(10, nil); ok {
		t.Fatal("live view still holds deleted key")
	}
	if v, _ := s.Find(15, nil); v != 999 {
		t.Fatalf("live value = %d, want 999", v)
	}
}

// TestSnapshotCloseIdempotentAndSweep: releasing the pin releases
// retention; Validate stays clean afterwards. (Handle-level Close
// idempotency lives in internal/shard's snapshot tests.)
func TestSnapshotCloseIdempotentAndSweep(t *testing.T) {
	s := New[uint64](Config{Width: 16, Seed: 7})
	for k := uint64(0); k < 64; k++ {
		s.Store(k, k, nil)
	}
	sn := pin(s)
	for k := uint64(0); k < 64; k += 2 {
		s.Delete(k, nil)
	}
	if got := len(snapKeys(sn)); got != 64 {
		t.Fatalf("snapshot sees %d keys, want 64", got)
	}
	if s.PinnedEpochs() != 1 {
		t.Fatalf("pins before release: %d, want 1", s.PinnedEpochs())
	}
	sn.release()
	if s.PinnedEpochs() != 0 {
		t.Fatalf("pins left: %d", s.PinnedEpochs())
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate after close: %v", err)
	}
	if s.Len() != 32 {
		t.Fatalf("Len = %d, want 32", s.Len())
	}
}

// TestSnapshotWithBase: snapshots respect the sub-universe translation
// (the shape shards rely on).
func TestSnapshotWithBase(t *testing.T) {
	s := New[uint64](Config{Width: 8, Base: 0x400, Seed: 5})
	for _, k := range []uint64{0x400, 0x410, 0x4FF} {
		s.Store(k, k, nil)
	}
	sn := pin(s)
	defer sn.release()
	s.Delete(0x410, nil)
	if got := snapKeys(sn); !eqU64(got, []uint64{0x400, 0x410, 0x4FF}) {
		t.Fatalf("snapshot keys = %#x", got)
	}
	if v, ok := sn.load(0x410); !ok || v != 0x410 {
		t.Fatalf("Load(0x410) = %#x,%v", v, ok)
	}
	if _, ok := sn.load(0x300); ok {
		t.Fatal("out-of-universe key visible")
	}
}

// TestSnapshotSeekWithinView: Seek/SeekLE position against the pinned
// view, not the live one.
func TestSnapshotSeekWithinView(t *testing.T) {
	s := New[uint64](Config{Width: 16, Seed: 11})
	for _, k := range []uint64{100, 200, 300} {
		s.Store(k, k, nil)
	}
	sn := pin(s)
	defer sn.release()
	s.Delete(200, nil)
	s.Store(250, 250, nil)

	it := sn.iter()
	if ok := it.Seek(150); !ok || it.Key() != 200 {
		t.Fatalf("Seek(150) = %d, want deleted-but-pinned 200", it.Key())
	}
	if ok := it.Seek(201); !ok || it.Key() != 300 {
		t.Fatalf("Seek(201) = %d, want 300 (not live 250)", it.Key())
	}
	if ok := it.SeekLE(299); !ok || it.Key() != 200 {
		t.Fatalf("SeekLE(299) = %d, want 200", it.Key())
	}
}

// TestSnapshotManyEpochs: a ladder of snapshots, each taken between
// updates, all stay exact until closed.
func TestSnapshotManyEpochs(t *testing.T) {
	s := New[uint64](Config{Width: 16, Seed: 13})
	type stage struct {
		sn   pinned
		want []uint64
	}
	var stages []stage
	live := map[uint64]bool{}
	for i := uint64(0); i < 20; i++ {
		k := i * 3
		s.Store(k, k, nil)
		live[k] = true
		if i%3 == 0 && i > 0 {
			s.Delete((i-1)*3, nil)
			delete(live, (i-1)*3)
		}
		var want []uint64
		for j := uint64(0); j < 64; j++ {
			if live[j] {
				want = append(want, j)
			}
		}
		stages = append(stages, stage{pin(s), want})
	}
	for i, st := range stages {
		if got := snapKeys(st.sn); !eqU64(got, st.want) {
			t.Fatalf("stage %d: snapshot = %v, want %v", i, got, st.want)
		}
	}
	for _, st := range stages {
		st.sn.release()
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
