package stats

import "testing"

func TestNilReceiverSafe(t *testing.T) {
	var o *Op
	o.Hop()
	o.IncCAS()
	o.Probe()
	o.TrieLevel()
	o.TouchTrie()
	o.Add(Op{Hops: 5})
	if o.Steps() != 0 {
		t.Fatal("nil Op has steps")
	}
}

func TestAccumulation(t *testing.T) {
	o := &Op{}
	o.Hop()
	o.Hop()
	o.IncCAS()
	o.Probe()
	o.TrieLevel()
	o.TouchTrie()
	if o.Hops != 2 || o.CAS != 1 || o.HashProbes != 1 {
		t.Fatalf("counts wrong: %+v", o)
	}
	if o.Steps() != 4 {
		t.Fatalf("Steps = %d, want 4", o.Steps())
	}
	if o.TrieLevels != 1 || !o.TrieTouch {
		t.Fatalf("trie fields wrong: %+v", o)
	}
}

func TestAdd(t *testing.T) {
	a := &Op{Hops: 1, CAS: 2, HashProbes: 4, TrieLevels: 5}
	b := Op{Hops: 10, CAS: 20, HashProbes: 40, TrieLevels: 50, TrieTouch: true}
	a.Add(b)
	if a.Hops != 11 || a.CAS != 22 || a.HashProbes != 44 || a.TrieLevels != 55 {
		t.Fatalf("Add wrong: %+v", a)
	}
	if !a.TrieTouch {
		t.Fatal("TrieTouch not propagated")
	}
	if a.Steps() != 11+22+44 {
		t.Fatalf("Steps = %d", a.Steps())
	}
}
