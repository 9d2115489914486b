package main

import (
	"math"
	"reflect"
	"testing"

	"skiptrie"
	"skiptrie/internal/wire"
)

// One seed must give the same op streams, and another seed different
// ones.
func TestStreamsDeterministic(t *testing.T) {
	const ops = 60_000
	gens := map[string]func(uint64) any{
		"read-ordered": func(s uint64) any { return genReadOrdered(s, ops) },
		"write-churn":  func(s uint64) any { return genWriteChurn(s, ops) },
		"wire-serve":   func(s uint64) any { return genWireServe(s, ops) },
	}
	for name, gen := range gens {
		a, b, c := gen(7), gen(7), gen(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different inputs", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same input", name)
		}
	}
}

// One seed must give the same solo-replay step counts.
func TestReplayDeterministic(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.name == "read-ordered" {
			continue // builds a 2^20-key trie twice
		}
		_, replay := w.prepare(3, 24_000)
		a, b := solo(replay), solo(replay)
		a.routeNs, b.routeNs = 0, 0 // a timing, not a count
		if a != b {
			t.Errorf("%s: replay counts differ between runs:\n%+v\n%+v", w.name, a, b)
		}
		if a.calls == 0 || a.steps == 0 {
			t.Errorf("%s: replay did nothing: %+v", w.name, a)
		}
	}
}

// The recorder's quantiles must stay within 1% of the exact value.
func TestHistResolution(t *testing.T) {
	var h hist
	for v := int64(1); v <= 1_000_000; v++ {
		h.record(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := q * 1_000_000
		if got := h.quantile(q); math.Abs(got-exact)/exact > 0.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", q, got, exact)
		}
	}
}

// A wrong answer must be counted as a failed op.
func TestChecksCountWrongAnswers(t *testing.T) {
	s, err := skiptrie.NewSharded[uint64](skiptrie.WithWidth(32))
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{10, 20, 30}
	bulkLoad(s, keys, values(keys))
	ops := []op{
		{kind: opPred, key: 25, aux: 20},      // right
		{kind: opPred, key: 25, aux: 10},      // wrong expectation: must fail
		{kind: opSucc, key: 31, aux: nothing}, // right
		{kind: opLoad, key: 15},               // absent: must fail
		{kind: opDelete, key: 30},             // right
		{kind: opDelete, key: 30},             // already gone: must fail
		{kind: opRange, key: 11, aux: 1},      // keys[1:] are 20 (30 is gone): short, must fail
	}
	for len(ops)%segments != 0 {
		ops = append(ops, op{kind: opLoad, key: 10})
	}
	w := newInWorker(0, ops)
	w.exactPred, w.keys = true, keys
	w.run(s)
	if w.failed != 4 {
		t.Errorf("failed = %d, want 4", w.failed)
	}

	in := &wsInput{stable: []uint64{4, 8, 12}}
	c := &wireConn{in: in}
	scan := func(keys ...uint64) []wire.Entry {
		es := make([]wire.Entry, len(keys))
		for i, k := range keys {
			es[i] = wire.Entry{Key: k, Val: appendWireValue(nil, k)}
		}
		return es
	}
	if !c.scanOK(&op{kind: opScan, key: 5, aux: 1}, scan(8, 9, 12)) {
		t.Error("a complete scan failed its check")
	}
	if c.scanOK(&op{kind: opScan, key: 5, aux: 1}, scan(9, 12)) {
		t.Error("a scan that skipped permanent key 8 passed")
	}
	bad := scan(8, 12)
	bad[1].Val[0]++
	if c.scanOK(&op{kind: opScan, key: 5, aux: 1}, bad) {
		t.Error("a scan with a wrong value passed")
	}
}
