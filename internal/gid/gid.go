// Package gid provides a cheap goroutine-spread hash for indexing
// striped per-goroutine state whose sums do not depend on the stripe
// (metrics counters, latency-histogram stripes).
//
// Go offers no public goroutine or P identity, so Hash derives one from
// the address of a stack-allocated local: goroutines that are alive at
// the same time occupy disjoint stacks, so their probe addresses — and,
// after mixing, their stripe indices — differ with high probability.
// The hash is not an identity: a goroutine calling from different stack
// depths, or whose stack was moved by a growth or a GC, observes a
// different value. Consumers must therefore treat the hash purely as a
// load-spreading device — any caller may land on any stripe at any
// time — and keep every stripe individually valid. Nothing that must
// repeat from run to run, such as a structure's shape or step counts,
// may depend on the stripe it picks. What the address trick buys is
// that the common case (many goroutines hammering one structure from
// stable call sites) spreads across stripes instead of serializing on
// one shared cache line, at the cost of a few arithmetic instructions
// and zero allocation.
package gid

import (
	"unsafe"

	"skiptrie/internal/uintbits"
)

// Hash returns a well-mixed 64-bit value that differs between
// concurrently live goroutines with high probability. It allocates
// nothing and never blocks. Mask it down to index a power-of-two
// stripe array: Hash() & (stripes - 1).
func Hash() uint64 {
	var probe byte
	// The pointer-to-uintptr conversion is the sanctioned direction of
	// unsafe traffic: the address is consumed as an integer and never
	// converted back, so the GC is free to move or reuse the stack.
	return uintbits.Mix64(uint64(uintptr(unsafe.Pointer(&probe))))
}
