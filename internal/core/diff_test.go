package core

import (
	"testing"
)

type diffEv struct {
	key uint64
	val uint64
	put bool
}

func collectDiff(a, b pinned) []diffEv {
	var out []diffEv
	a.s.DiffEpochs(a.at, b.at, nil, func(k, v uint64, put bool) bool {
		out = append(out, diffEv{k, v, put})
		return true
	})
	return out
}

// TestDiffBasic: insert/overwrite/delete/net-out between two snapshots
// yield exactly the net change set, ascending by key.
func TestDiffBasic(t *testing.T) {
	s := New[uint64](Config{Width: 16, Seed: 5})
	for k := uint64(0); k < 100; k++ {
		s.Store(k, k, nil)
	}
	a := pin(s)
	defer a.release()

	s.Store(200, 200, nil) // insert
	s.Store(50, 5000, nil) // overwrite
	s.Delete(10, nil)      // delete
	s.Store(201, 1, nil)   // insert then delete: nets out
	s.Delete(201, nil)
	s.Delete(20, nil) // delete then re-insert: distinct node, put
	s.Store(20, 2020, nil)
	s.Store(60, 60, nil) // overwrite with the same value: still a put

	b := pin(s)
	defer b.release()

	got := collectDiff(a, b)
	want := []diffEv{
		{10, 0, false},
		{20, 2020, true},
		{50, 5000, true},
		{60, 60, true},
		{200, 200, true},
	}
	if len(got) != len(want) {
		t.Fatalf("diff = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diff[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Untouched window: empty diff.
	if d := collectDiff(b, b); len(d) != 0 {
		t.Fatalf("self-diff = %v, want empty", d)
	}
}

// TestDiffApplyReproducesView: applying the diff to a materialized copy
// of view a yields exactly view b, under a larger random-ish workload.
func TestDiffApplyReproducesView(t *testing.T) {
	s := New[uint64](Config{Width: 20, Seed: 6})
	for k := uint64(0); k < 5000; k++ {
		s.Store(k*3, k, nil)
	}
	a := pin(s)
	defer a.release()
	for k := uint64(0); k < 5000; k += 2 {
		switch k % 6 {
		case 0:
			s.Store(k*3, k+1, nil) // overwrite
		case 2:
			s.Delete(k*3, nil)
		default:
			s.Store(k*3+1, k, nil) // insert
		}
	}
	b := pin(s)
	defer b.release()

	model := make(map[uint64]uint64)
	ai := a.iter()
	for ok := ai.Seek(0); ok; ok = ai.Next() {
		model[ai.Key()] = ai.Value()
	}
	var prev uint64
	first := true
	a.s.DiffEpochs(a.at, b.at, nil, func(k, v uint64, put bool) bool {
		if !first && k <= prev {
			t.Fatalf("diff keys not strictly ascending: %d after %d", k, prev)
		}
		prev, first = k, false
		if put {
			model[k] = v
		} else {
			if _, ok := model[k]; !ok {
				t.Fatalf("delete of key %d absent from view a", k)
			}
			delete(model, k)
		}
		return true
	})

	bi := b.iter()
	n := 0
	for ok := bi.Seek(0); ok; ok = bi.Next() {
		n++
		if v, ok := model[bi.Key()]; !ok || v != bi.Value() {
			t.Fatalf("applied model disagrees at %d: %d,%v want %d", bi.Key(), v, ok, bi.Value())
		}
	}
	if n != len(model) {
		t.Fatalf("applied model has %d keys, view b has %d", len(model), n)
	}
}

// TestDiffEarlyStop: emit returning false stops the walk without error.
func TestDiffEarlyStop(t *testing.T) {
	s := New[uint64](Config{Width: 16})
	a := pin(s)
	defer a.release()
	for k := uint64(0); k < 100; k++ {
		s.Store(k, k, nil)
	}
	b := pin(s)
	defer b.release()
	n := 0
	if a.s.DiffEpochs(a.at, b.at, nil, func(uint64, uint64, bool) bool {
		n++
		return n < 5
	}) {
		t.Fatal("DiffEpochs reported a completed walk after emit stopped it")
	}
	if n != 5 {
		t.Fatalf("emit called %d times after stop at 5", n)
	}
}
