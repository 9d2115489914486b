package skiplist

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"unsafe"
)

// TestNodeLayout pins the cache-line layout: a Node is one 64-byte line on
// 64-bit targets whose first 32 bytes hold the fields a hop and a liveness
// check read, and a data root's allocation starts with its Node. The root
// allocations stay in the smallest size classes their fields allow:
// dataNode[uint64] in 96 bytes, the dataNode[[]byte] a byte-valued map
// stores in 112, and the set form's bare rootNode in 80.
func TestNodeLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 {
		if got := unsafe.Sizeof(Node{}); got != 64 {
			t.Errorf("Node is %d bytes, want 64", got)
		}
		var n Node
		for _, f := range []struct {
			name     string
			off, end uintptr
		}{
			{"key", unsafe.Offsetof(n.key), unsafe.Sizeof(n.key)},
			{"next", unsafe.Offsetof(n.next), unsafe.Sizeof(n.next)},
			{"flags", unsafe.Offsetof(n.flags), unsafe.Sizeof(n.flags)},
			{"dead", unsafe.Offsetof(n.dead), unsafe.Sizeof(n.dead)},
		} {
			if end := f.off + f.end; end > 32 {
				t.Errorf("Node.%s ends at byte %d, want within the first 32", f.name, end)
			}
		}
	}
	var d dataNode[uint64]
	if off := unsafe.Offsetof(d.n); off != 0 {
		t.Errorf("dataNode's Node at offset %d, want 0", off)
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"dataNode[uint64]", unsafe.Sizeof(d), 96},
		{"dataNode[[]byte]", unsafe.Sizeof(dataNode[[]byte]{}), 112},
		{"rootNode", unsafe.Sizeof(rootNode{}), 80},
	} {
		if c.got > c.want {
			t.Errorf("%s is %d bytes, want at most %d", c.name, c.got, c.want)
		}
	}
}

// allocPerOp runs f n times after one warm-up call and returns the mean
// heap objects and bytes (size-class bytes, as the allocator charges them)
// allocated per call. Unlike testing.AllocsPerRun it keeps the fraction.
func allocPerOp(n int, f func()) (objs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// TestInsertDeleteAllocs pins the allocation cost of the marker-node
// links and of the cache-line layout: a fresh insert allocates its
// 96-byte level-0 node plus, for a tower above level 0, one slab of
// 64-byte nodes holding the rest of the tower, and a delete allocates
// one 64-byte marker per tower level. No link update allocates. A set
// form insert of height 1 allocates one bare 80-byte root. The list
// has more levels than the towers measured, so no insert reaches the top
// level and its prev bookkeeping. The means are taken over many ops;
// the tolerances admit a stray runtime allocation (a sync.Pool re-pinned
// after a GC), not one more object or size class per op.
func TestInsertDeleteAllocs(t *testing.T) {
	const runs = 1000
	check := func(what string, objs, bytes, wantObjs, wantBytes float64) {
		t.Helper()
		if math.Abs(objs-wantObjs) > 0.01 || math.Abs(bytes-wantBytes) > 1 {
			t.Errorf("%s allocates %.3f objects and %.1f B per op, want %v and %v B",
				what, objs, bytes, wantObjs, wantBytes)
		}
	}
	for h := 1; h <= 3; h++ {
		l := New[int](Config{Levels: 4, Seed: 1})
		next := uint64(0)
		objs, bytes := allocPerOp(runs, func() {
			l.InsertWithHeight(next, 1, nil, h, nil)
			next += 2
		})
		wantObjs := 1.0
		if h > 1 {
			wantObjs = 2
		}
		check(fmt.Sprintf("height %d: fresh insert", h), objs, bytes, wantObjs, float64(96+64*(h-1)))
		next = 0
		objs, bytes = allocPerOp(runs, func() {
			l.Delete(next, nil, nil)
			next += 2
		})
		check(fmt.Sprintf("height %d: delete", h), objs, bytes, float64(h), float64(64*h))
	}
	set := New[struct{}](Config{Levels: 4, Seed: 1})
	next := uint64(0)
	objs, bytes := allocPerOp(runs, func() {
		set.InsertWithHeight(next, struct{}{}, nil, 1, nil)
		next += 2
	})
	check("set form: height 1: fresh insert", objs, bytes, 1, 80)
}

// TestAllocsPinnedOverwrite pins the cost of the value history: under a
// live pin the first overwrite of a key allocates exactly one object, the
// history record holding the superseded version inline, and a read at the
// pin still returns that version with its stamp (the born epoch, as no
// pin saw the value written). Once the pin is released the next
// overwrite allocates nothing and drops the record.
func TestAllocsPinnedOverwrite(t *testing.T) {
	const keys = 1000
	l := New[int](Config{Levels: 4, Seed: 1})
	roots := make([]*Node, keys+1)
	for k := range roots {
		roots[k] = l.InsertWithHeight(uint64(k), k, nil, 1, nil).Root
	}
	born := rootOf(roots[0]).born
	l.ReleaseEpoch(l.PinEpoch()) // move the clock past the born epoch
	p := l.PinEpoch()
	next := 0
	objs, _ := allocPerOp(keys, func() {
		l.SetValue(roots[next], -next)
		next++
	})
	if math.Abs(objs-1) > 0.01 {
		t.Errorf("pinned first overwrite allocates %.3f objects per op, want 1", objs)
	}
	for k, n := range roots {
		if v, from := l.ValueStampAt(n, p); v != k || from != born {
			t.Fatalf("key %d: ValueStampAt(pin) = %d, %d; want %d, %d", k, v, from, k, born)
		}
		if v := l.ValueAt(n, p); v != k {
			t.Fatalf("key %d: ValueAt(pin) = %d, want %d", k, v, k)
		}
		if v := l.ValueOf(n); v != -k {
			t.Fatalf("key %d: ValueOf = %d, want %d", k, v, -k)
		}
	}
	l.ReleaseEpoch(p)
	next = 0
	objs, _ = allocPerOp(keys, func() {
		l.SetValue(roots[next], next)
		next++
	})
	if objs > 0.01 {
		t.Errorf("overwrite after release allocates %.3f objects per op, want 0", objs)
	}
	for k, n := range roots {
		if dataOf[int](n).hist != nil {
			t.Fatalf("key %d: history record kept after the pin was released", k)
		}
	}
}
