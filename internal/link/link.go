// Package link provides the (next, marked) word of a lock-free linked
// list: a successor pointer whose lowest bit marks the node holding the
// word deleted (Harris). A marked word keeps its successor frozen, so a
// CAS that expects the successor fails once the word is marked, and
// marking allocates nothing.
//
// A marked word holds the successor's address plus one: an interior
// pointer one byte into the successor's allocation, which the garbage
// collector follows like any other, so a successor reachable only
// through marked words stays alive. The tagged address is only ever held
// as an unsafe.Pointer and is cleared with unsafe.Add before it is
// converted back to *T (checkptr rejects a misaligned *T). A successor
// must therefore be non-nil, so that the tag is never set on a nil
// pointer, and at least two bytes long, so that the tagged address stays
// inside its object.
package link

import (
	"sync/atomic"
	"unsafe"
)

// Link is one node's link word. The zero Link is an unmarked nil.
type Link[T any] struct {
	p unsafe.Pointer
}

// Load returns the successor and whether the word is marked.
func (l *Link[T]) Load() (*T, bool) {
	p := atomic.LoadPointer(&l.p)
	if uintptr(p)&1 != 0 {
		return (*T)(unsafe.Add(p, -1)), true
	}
	return (*T)(p), false
}

// Store sets the word to succ, unmarked, overwriting any mark.
func (l *Link[T]) Store(succ *T) { atomic.StorePointer(&l.p, unsafe.Pointer(succ)) }

// CompareAndSwap replaces an unmarked old successor with new. It fails
// once the word is marked, whatever old is.
func (l *Link[T]) CompareAndSwap(old, new *T) bool {
	return atomic.CompareAndSwapPointer(&l.p, unsafe.Pointer(old), unsafe.Pointer(new))
}

// Mark marks the word if it still holds succ unmarked, reporting whether
// this call marked it. succ must be non-nil.
func (l *Link[T]) Mark(succ *T) bool {
	if succ == nil {
		panic("link: marking a nil successor")
	}
	p := unsafe.Pointer(succ)
	return atomic.CompareAndSwapPointer(&l.p, p, unsafe.Add(p, 1))
}
