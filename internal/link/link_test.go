package link

import (
	"runtime"
	"testing"
	"weak"
)

// node is 32 bytes, the size of the smallest list node in this module,
// and holds a pointer, so the allocator never packs it with other
// objects (only pointer-free objects share a tiny block).
type node struct {
	key  uint64
	next Link[node]
	_    [2]uint64
}

func TestCASFailsOnceMarked(t *testing.T) {
	var l Link[node]
	a, b := &node{key: 1}, &node{key: 2}
	l.Store(a)
	if !l.CompareAndSwap(a, b) || !l.CompareAndSwap(b, a) {
		t.Fatal("CAS on an unmarked word failed")
	}
	if !l.Mark(a) {
		t.Fatal("Mark of the current successor failed")
	}
	if l.Mark(a) {
		t.Fatal("a second Mark succeeded")
	}
	if l.CompareAndSwap(a, b) {
		t.Fatal("CAS expecting the successor succeeded on a marked word")
	}
	if l.Mark(b) || l.CompareAndSwap(b, a) {
		t.Fatal("an update expecting another successor succeeded")
	}
	if got, marked := l.Load(); got != a || !marked || got.key != 1 {
		t.Fatalf("Load = %p, %v; want the frozen successor %p, true", got, marked, a)
	}
}

func TestLoadUnmarked(t *testing.T) {
	var l Link[node]
	if got, marked := l.Load(); got != nil || marked {
		t.Fatalf("zero Link loads %p, %v; want nil, false", got, marked)
	}
	a := &node{key: 1}
	l.Store(a)
	if got, marked := l.Load(); got != a || marked {
		t.Fatalf("Load = %p, %v; want %p, false", got, marked, a)
	}
}

func TestMarkNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mark(nil) did not panic")
		}
	}()
	var l Link[node]
	l.Mark(nil)
}

// TestMarkedWordKeepsSuccessorAlive checks that the tagged address of a
// marked word, which points one byte into the successor, keeps the
// successor alive, and that overwriting the word releases it.
func TestMarkedWordKeepsSuccessorAlive(t *testing.T) {
	holder := new(node)
	w := markFresh(t, holder)
	runtime.GC()
	runtime.GC()
	checkFrozen(t, holder, w)
	holder.next.Store(nil)
	runtime.GC()
	runtime.GC()
	if w.Value() != nil {
		t.Fatal("successor survived after the marked word was overwritten")
	}
	runtime.KeepAlive(holder)
}

// checkFrozen fails unless holder's word is marked and still leads to
// the successor w points at, intact.
func checkFrozen(t *testing.T, holder *node, w weak.Pointer[node]) {
	t.Helper()
	succ, marked := holder.next.Load()
	if w.Value() == nil || succ != w.Value() || !marked || succ.key != 42 {
		t.Fatalf("successor reachable only through a marked word was lost: weak %p, Load %p, %v", w.Value(), succ, marked)
	}
}

// markFresh links a fresh successor behind holder, marks the word and
// returns only a weak pointer to the successor.
func markFresh(t *testing.T, holder *node) weak.Pointer[node] {
	succ := &node{key: 42}
	holder.next.Store(succ)
	if !holder.next.Mark(succ) {
		t.Fatal("Mark failed")
	}
	return weak.Make(succ)
}
