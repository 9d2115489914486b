package shard

import (
	"fmt"
	"math/rand"
	"testing"
)

// iterTrie builds a 16-bit, 8-shard trie (sub-universe width 13).
func iterTrie(t *testing.T, keys []uint64) *Trie[uint64] {
	t.Helper()
	tr := New[uint64](Config{Width: 16, Shards: 8, Seed: 21})
	for _, k := range keys {
		if !tr.Insert(k, k+1, nil) {
			t.Fatalf("Insert(%#x) failed", k)
		}
	}
	return tr
}

func TestMergeIterAcrossShards(t *testing.T) {
	// Keys spread over shards 0, 2, 5, 7 — shards 1, 3, 4, 6 empty in
	// the middle of the merge.
	keys := []uint64{0x0001, 0x0ABC, 0x4001, 0x5FFF, 0xA000, 0xBFFF, 0xE000, 0xFFFF}
	tr := iterTrie(t, keys)
	it := tr.MakeIter(nil)

	var fwd []uint64
	for ok := it.First(); ok; ok = it.Next() {
		fwd = append(fwd, it.Key())
		if it.Value() != it.Key()+1 {
			t.Fatalf("value at %#x = %d", it.Key(), it.Value())
		}
	}
	if len(fwd) != len(keys) {
		t.Fatalf("forward merge = %#x, want %#x", fwd, keys)
	}
	for i := range keys {
		if fwd[i] != keys[i] {
			t.Fatalf("forward merge = %#x, want %#x", fwd, keys)
		}
	}

	var back []uint64
	for ok := it.Last(); ok; ok = it.Prev() {
		back = append(back, it.Key())
	}
	for i := range keys {
		if back[len(keys)-1-i] != keys[i] {
			t.Fatalf("backward merge = %#x", back)
		}
	}
}

func TestMergeIterSeekBoundaries(t *testing.T) {
	// Exact shard-boundary keys: each shard owns 0x2000 keys.
	keys := []uint64{0x1FFF, 0x2000, 0x3FFF, 0x4000, 0xDFFF, 0xE000}
	tr := iterTrie(t, keys)
	it := tr.MakeIter(nil)
	for _, tc := range []struct {
		seek uint64
		want uint64
		ok   bool
	}{
		{0, 0x1FFF, true},
		{0x1FFF, 0x1FFF, true},
		{0x2000, 0x2000, true},
		{0x2001, 0x3FFF, true},
		{0xE001, 0, false},
	} {
		ok := it.Seek(tc.seek)
		if ok != tc.ok {
			t.Fatalf("Seek(%#x) = %v, want %v", tc.seek, ok, tc.ok)
		}
		if ok && it.Key() != tc.want {
			t.Fatalf("Seek(%#x) landed on %#x, want %#x", tc.seek, it.Key(), tc.want)
		}
	}
	for _, tc := range []struct {
		seek uint64
		want uint64
		ok   bool
	}{
		{0xFFFF, 0xE000, true},
		{0xE000, 0xE000, true},
		{0xDFFE, 0x4000, true},
		{0x1FFE, 0, false},
	} {
		ok := it.SeekLE(tc.seek)
		if ok != tc.ok {
			t.Fatalf("SeekLE(%#x) = %v, want %v", tc.seek, ok, tc.ok)
		}
		if ok && it.Key() != tc.want {
			t.Fatalf("SeekLE(%#x) landed on %#x, want %#x", tc.seek, it.Key(), tc.want)
		}
	}
}

func TestMergeIterDirectionReversal(t *testing.T) {
	keys := []uint64{0x1FFF, 0x2000, 0x8000, 0xE000}
	tr := iterTrie(t, keys)
	it := tr.MakeIter(nil)
	// Ascend across the first shard boundary, reverse back over it,
	// run off the bottom, re-seek, and reverse again near the top.
	if !it.Seek(0) || it.Key() != 0x1FFF {
		t.Fatal("Seek(0)")
	}
	if !it.Next() || it.Key() != 0x2000 {
		t.Fatal("Next to 0x2000")
	}
	if !it.Prev() || it.Key() != 0x1FFF {
		t.Fatal("Prev back across the boundary")
	}
	if it.Prev() {
		t.Fatalf("Prev below the smallest key yielded %#x", it.Key())
	}
	if it.Valid() || it.Next() {
		t.Fatal("exhausted cursor moved without a re-seek")
	}
	if !it.Seek(0x8000) || it.Key() != 0x8000 {
		t.Fatal("re-seek after exhaustion")
	}
	if !it.Next() || it.Key() != 0xE000 {
		t.Fatal("Next to 0xE000")
	}
	if it.Next() {
		t.Fatal("Next above the largest key")
	}
	// Reversal off the top edge: SeekLE then forward.
	if !it.SeekLE(0xFFFF) || it.Key() != 0xE000 {
		t.Fatal("SeekLE(0xFFFF)")
	}
	if !it.Prev() || it.Key() != 0x8000 {
		t.Fatal("Prev to 0x8000")
	}
	if !it.Next() || it.Key() != 0xE000 {
		t.Fatal("Next after reversal to 0xE000")
	}
}

func TestMergeIterEmpty(t *testing.T) {
	tr := New[uint64](Config{Width: 16, Shards: 8, Seed: 3})
	it := tr.MakeIter(nil)
	if it.First() || it.Last() || it.Next() || it.Prev() || it.Valid() {
		t.Fatal("cursor over an empty trie claims a key")
	}
	if it.Seek(0x8000) || it.SeekLE(0x8000) {
		t.Fatal("seek over an empty trie claims a key")
	}
}

// perShardKeys concatenates each shard's own cursor output: the
// reference order for every cross-shard traversal.
func perShardKeys(tr *Trie[uint64]) []uint64 {
	var all []uint64
	for _, b := range tr.tab.Load().buckets {
		b.trie.Range(0, func(k uint64, _ uint64) bool { all = append(all, k); return true }, nil)
	}
	return all
}

// checkTraversal walks a fresh cursor from seek through step and
// fails on the first divergence from want.
func checkTraversal(t *testing.T, tr *Trie[uint64], name string, want []uint64,
	seek func(*Iter[uint64]) bool, step func(*Iter[uint64]) bool) {
	t.Helper()
	var got []uint64
	it := tr.MakeIter(nil)
	for ok := seek(&it); ok; ok = step(&it) {
		got = append(got, it.Key())
	}
	if len(got) != len(want) {
		t.Fatalf("%s: cursor yielded %d keys, per-shard %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: divergence at %d: cursor %#x, per-shard %#x", name, i, got[i], want[i])
		}
	}
}

// TestMergeIterVsPerShard cross-checks the cursor against
// concatenating each shard's own cursor output, on a random quiesced
// population.
func TestMergeIterVsPerShard(t *testing.T) {
	tr := New[uint64](Config{Width: 16, Shards: 16, Seed: 9})
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 5000; i++ {
		tr.Insert(uint64(rng.Intn(1<<16)), uint64(i), nil)
		if i%4 == 0 {
			tr.Delete(uint64(rng.Intn(1<<16)), nil)
		}
	}
	checkTraversal(t, tr, "First/Next", perShardKeys(tr), (*Iter[uint64]).First, (*Iter[uint64]).Next)
}

// TestSeekAllMatchesSeek pins seek-positioned traversals to the full
// one: on 16 shards, Seek/Next and SeekLE/Prev from five start points
// must yield exactly the per-shard keys at or beyond the start point,
// in order, and a cursor positioned by Seek must reverse across a
// shard boundary.
func TestSeekAllMatchesSeek(t *testing.T) {
	tr := New[uint64](Config{Width: 16, Shards: 16, Seed: 21})
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 4000; i++ {
		tr.Insert(uint64(rng.Intn(1<<16)), uint64(i), nil)
	}
	all := perShardKeys(tr)
	for _, from := range []uint64{0, 1, 0x7FFF, 0x8000, 0xFFFF} {
		var up, down []uint64
		for _, k := range all {
			if k >= from {
				up = append(up, k)
			}
		}
		for i := len(all) - 1; i >= 0; i-- {
			if all[i] <= from {
				down = append(down, all[i])
			}
		}
		checkTraversal(t, tr, fmt.Sprintf("Seek(%#x)/Next", from), up,
			func(it *Iter[uint64]) bool { return it.Seek(from) }, (*Iter[uint64]).Next)
		checkTraversal(t, tr, fmt.Sprintf("SeekLE(%#x)/Prev", from), down,
			func(it *Iter[uint64]) bool { return it.SeekLE(from) }, (*Iter[uint64]).Prev)
	}
	// 0x4000 opens shard 4, so the second Prev crosses back into
	// shard 3.
	it := tr.MakeIter(nil)
	if !it.Seek(0x4000) {
		t.Fatal("Seek(0x4000) found nothing")
	}
	first := it.Key()
	if !it.Next() || !it.Prev() || it.Key() != first || !it.Prev() || it.Key() >= 0x4000 {
		t.Fatal("seek-positioned cursor cannot reverse across the shard boundary")
	}
}

// TestIterReseedsAcrossReshard pins the re-seeding contract: a cursor
// built on one partition keeps scanning its snapshot coherently after
// a Split republishes the table, and the next positioning call adopts
// the new partition.
func TestIterReseedsAcrossReshard(t *testing.T) {
	tr := New[uint64](Config{Width: 16, Shards: 2, MaxShards: 16, Seed: 3})
	for k := uint64(0); k < 1<<16; k += 256 {
		tr.Store(k, k, nil)
	}
	it := tr.MakeIter(nil)
	if !it.First() {
		t.Fatal("First on populated trie failed")
	}
	gen0 := it.tab.gen
	var got []uint64
	got = append(got, it.Key())
	for i := 0; i < 10 && it.Next(); i++ {
		got = append(got, it.Key())
	}
	if _, err := tr.Split(0); err != nil {
		t.Fatalf("Split: %v", err)
	}
	// Mid-scan steps stay on the old snapshot, strictly monotone.
	last := got[len(got)-1]
	for i := 0; i < 10 && it.Next(); i++ {
		if it.Key() <= last {
			t.Fatalf("post-split step went backward: %#x after %#x", it.Key(), last)
		}
		last = it.Key()
	}
	if it.tab.gen != gen0 {
		t.Fatal("mid-scan step re-seeded the cursor")
	}
	// A fresh positioning call adopts the new table and still yields
	// the full population.
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		n++
	}
	if it.tab.gen == gen0 {
		t.Fatal("Seek did not re-seed onto the republished table")
	}
	if want := tr.Len(); n != want {
		t.Fatalf("re-seeded scan yielded %d keys, want %d", n, want)
	}
}
