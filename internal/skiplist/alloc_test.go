package skiplist

import (
	"math"
	"runtime"
	"testing"
	"unsafe"
)

// TestNodeLayout pins the cache-line layout: a Node is one 64-byte line on
// 64-bit targets, and a data root's allocation starts with its Node, so
// the fields a hop reads share the allocation's first line, and
// dataNode[uint64] fits the 128-byte size class.
func TestNodeLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 {
		if got := unsafe.Sizeof(Node{}); got != 64 {
			t.Errorf("Node is %d bytes, want 64", got)
		}
	}
	var d dataNode[uint64]
	if off := unsafe.Offsetof(d.n); off != 0 {
		t.Errorf("dataNode's Node at offset %d, want 0", off)
	}
	if got := unsafe.Sizeof(d); got > 128 {
		t.Errorf("dataNode[uint64] is %d bytes, want at most 128", got)
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
// 128-byte level-0 node plus, for a tower above level 0, one slab of
// 64-byte nodes holding the rest of the tower, and a delete allocates
// one 64-byte marker per tower level. No link update allocates. The list
// has more levels than the towers measured, so no insert reaches the top
// level and its prev bookkeeping. The means are taken over many ops;
// the tolerances admit a stray runtime allocation (a sync.Pool re-pinned
// after a GC), not one more object or size class per op.
func TestInsertDeleteAllocs(t *testing.T) {
	const runs = 1000
	for h := 1; h <= 3; h++ {
		l := New[int](Config{Levels: 4, Seed: 1})
		next := uint64(0)
		check := func(op string, objs, bytes, wantObjs, wantBytes float64) {
			t.Helper()
			if math.Abs(objs-wantObjs) > 0.01 || math.Abs(bytes-wantBytes) > 1 {
				t.Errorf("height %d: %s allocates %.3f objects and %.1f B per op, want %v and %v B",
					h, op, objs, bytes, wantObjs, wantBytes)
			}
		}
		objs, bytes := allocPerOp(runs, func() {
			l.InsertWithHeight(next, 1, nil, h, nil)
			next += 2
		})
		wantObjs := 1.0
		if h > 1 {
			wantObjs = 2
		}
		check("fresh insert", objs, bytes, wantObjs, float64(128+64*(h-1)))
		next = 0
		objs, bytes = allocPerOp(runs, func() {
			l.Delete(next, nil, nil)
			next += 2
		})
		check("delete", objs, bytes, float64(h), float64(64*h))
	}
}
