package skiplist

// Tower-height randomness. One global atomic RNG word per list would
// serialize every concurrent insert — however well the rest of the
// write path scaled — on one shared cache line for its level draw.
// Heights need no global sequence: any stream of fair Geom(1/2) draws
// preserves the paper's expectations, so the state is striped across
// padded cache lines indexed by a hash of the inserted key, and each
// stripe advances an independent xorshift64. Writers on different keys
// spread across stripes as goroutines would, and the stripe an insert
// draws from depends on nothing but its key.
//
// Stripes are seeded lazily, on first use, from the list's base seed
// and a shared splitmix-style counter, so the n'th stripe seeded gets
// the n'th stream whatever its index. For single-goroutine use the
// drawn heights therefore depend only on the seed and the sequence of
// inserted keys. Concurrent writers interleave stripe seeding and
// stepping nondeterministically; Config.Seed makes no reproducibility
// promise there (see Config.Seed). The key only picks the stripe: the
// height itself comes from the stripe's state, never from the key, so
// a client that chooses its keys cannot choose their heights.

import (
	"math/bits"
	"sync/atomic"

	"skiptrie/internal/uintbits"
)

// rngStripes spreads the height-RNG state across cache lines. Power of
// two; 16 stripes keep the collision rate low at any realistic writer
// count while costing one KiB per list.
const rngStripes = 16

// rngStripe is one padded lane of xorshift64 state. Zero means "not yet
// seeded" (xorshift never reaches 0 from a nonzero state, so 0 is free
// to act as the sentinel).
type rngStripe struct {
	state atomic.Uint64
	_     [56]byte // keep stripes on separate cache lines
}

// randomHeight draws the height of key's tower, Geom(1/2) truncated to
// [1, levels]: P(h) = 2^-h, with the remainder mass on h = levels, so
// P(reaching the top level) is 2^-(levels-1) = 1/log u for levels =
// ceil(log2 log u)+1. The key picks the stripe, not the draw.
//
// The stripe is advanced with a plain atomic load/store pair, not a
// CAS: two goroutines that collide on one stripe can overwrite each
// other's step and draw identical values. For tower heights a rare
// duplicated draw is statistically harmless (the draws stay fair and
// independent across keys), and the store never retries or waits.
func (l *Topology) randomHeight(key uint64) int {
	s := &l.rng[uintbits.Mix64(key)&(rngStripes-1)].state
	x := s.Load()
	if x == 0 {
		x = l.seedStripe()
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.Store(x)
	// Whiten before consuming: raw xorshift low bits are correlated
	// between consecutive states, and TrailingZeros reads exactly those.
	d := uintbits.Mix64(x)
	return bits.TrailingZeros64(d|1<<(l.levels-1)) + 1
}

// seedStripe produces a fresh stripe's initial xorshift state: the
// list's base seed stepped by a shared counter through a splitmix-style
// mix, so distinct stripes get well-separated streams and the n'th
// stripe ever seeded is the same for a given Config.Seed no matter
// which index it lives at.
func (l *Topology) seedStripe() uint64 {
	x := uintbits.Mix64(l.rngSeed + l.rngCtr.Add(1)*0x9E3779B97F4A7C15)
	if x == 0 {
		x = 0x9E3779B97F4A7C15 // keep the xorshift state nonzero
	}
	return x
}
