package shard

import (
	"testing"
)

type sdiffEv struct {
	key uint64
	val uint64
	put bool
}

func shardDiff(t *testing.T, a, b *Snap[uint64]) []sdiffEv {
	t.Helper()
	var out []sdiffEv
	if err := a.DiffTo(b, nil, func(k, v uint64, put bool) bool {
		out = append(out, sdiffEv{k, v, put})
		return true
	}); err != nil {
		t.Fatalf("DiffTo: %v", err)
	}
	return out
}

// materialize builds a key→value map of a snapshot's contents.
func materialize(sn *Snap[uint64]) map[uint64]uint64 {
	m := make(map[uint64]uint64)
	it := sn.MakeIter(nil)
	for ok := it.First(); ok; ok = it.Next() {
		m[it.Key()] = it.Value()
	}
	return m
}

// checkDiffTransforms applies the diff a→b to a's materialization and
// requires the result to equal b's, with exact deletes and ascending
// ordering — the full delivery contract minus exactly-once puts.
func checkDiffTransforms(t *testing.T, a, b *Snap[uint64]) []sdiffEv {
	t.Helper()
	events := shardDiff(t, a, b)
	ma, mb := materialize(a), materialize(b)
	var prev uint64
	for i, ev := range events {
		if i > 0 && ev.key <= prev {
			t.Fatalf("diff keys not strictly ascending: %d after %d", ev.key, prev)
		}
		prev = ev.key
		if ev.put {
			if want, ok := mb[ev.key]; !ok || want != ev.val {
				t.Fatalf("put(%d, %d) but view b holds %d,%v", ev.key, ev.val, want, ok)
			}
			ma[ev.key] = ev.val
		} else {
			if _, ok := ma[ev.key]; !ok {
				t.Fatalf("delete(%d) but view a lacks the key", ev.key)
			}
			if _, ok := mb[ev.key]; ok {
				t.Fatalf("delete(%d) but view b still holds the key", ev.key)
			}
			delete(ma, ev.key)
		}
	}
	if len(ma) != len(mb) {
		t.Fatalf("applied diff yields %d keys, view b has %d", len(ma), len(mb))
	}
	for k, v := range mb {
		if ma[k] != v {
			t.Fatalf("applied diff disagrees at %d: %d want %d", k, ma[k], v)
		}
	}
	return events
}

// TestShardDiffSameTable: with no reshard in the window every bucket is
// shared and the diff is exact (journal-driven).
func TestShardDiffSameTable(t *testing.T) {
	tr := New[uint64](Config{Width: 16, Shards: 4, Seed: 3})
	for k := uint64(0); k < 1<<12; k += 5 {
		tr.Store(k, k, nil)
	}
	a := tr.Snapshot()
	defer a.Close()
	tr.Store(3, 33, nil)
	tr.Store(1<<15, 99, nil)
	tr.Delete(10, nil)
	tr.Store(20, 2000, nil)
	b := tr.Snapshot()
	defer b.Close()

	events := checkDiffTransforms(t, a, b)
	if len(events) != 4 {
		t.Fatalf("same-table diff emitted %d events, want exactly 4: %v", len(events), events)
	}
}

// TestShardDiffAcrossReshard: Split and Merge inside the window force
// the merge-walk fallback on reshaped ranges; the diff must still
// transform view a into view b, and ranges untouched by the reshard
// must not be re-announced.
func TestShardDiffAcrossReshard(t *testing.T) {
	tr := New[uint64](Config{Width: 12, Shards: 4, MaxShards: 16, Seed: 11})
	for k := uint64(0); k < 1<<12; k += 3 {
		tr.Store(k, k, nil)
	}
	a := tr.Snapshot()
	defer a.Close()

	if _, err := tr.Split(0); err != nil {
		t.Fatalf("Split: %v", err)
	}
	tr.Delete(3, nil)
	tr.Store(5, 55, nil)
	if _, err := tr.Merge(1 << 11); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	tr.Store((1<<11)+1, 77, nil)

	b := tr.Snapshot()
	defer b.Close()
	checkDiffTransforms(t, a, b)

	// A second diff over a quiet post-reshard window must be empty for
	// ranges still owned by shared buckets — and with no reshard in this
	// window, empty everywhere.
	c := tr.Snapshot()
	defer c.Close()
	if events := shardDiff(t, b, c); len(events) != 0 {
		t.Fatalf("quiet window diff emitted %v", events)
	}
}

// TestShardDiffErrors: mismatched tries, reversed order, closed snaps.
func TestShardDiffErrors(t *testing.T) {
	t1 := New[uint64](Config{Width: 16, Shards: 2})
	t2 := New[uint64](Config{Width: 16, Shards: 2})
	a := t1.Snapshot()
	x := t2.Snapshot()
	if err := a.DiffTo(x, nil, nil); err != ErrSnapMismatch {
		t.Fatalf("cross-trie diff err = %v", err)
	}
	x.Close()
	b := t1.Snapshot()
	if err := b.DiffTo(a, nil, nil); err != ErrSnapOrder {
		t.Fatalf("reversed diff err = %v", err)
	}
	b.Close()
	if err := a.DiffTo(b, nil, nil); err != ErrSnapClosed {
		t.Fatalf("closed diff err = %v", err)
	}
	a.Close()
}
