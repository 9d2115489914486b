// Package workload generates the keys and operation mixes used by the
// reproduction experiments (README.md, "Reproduction experiments
// (T1-T8, F1)"): uniform and skewed key distributions over configurable
// universes, and read/write operation mixes.
package workload

import (
	"math"
	"math/rand"
	"sync/atomic"

	"skiptrie/internal/uintbits"
)

// KeyGen produces keys from a width-w universe.
type KeyGen interface {
	// Next returns the next key, < 2^width.
	Next(rng *rand.Rand) uint64
	// Width returns the universe width.
	Width() uint8
}

// Uniform draws keys uniformly from the whole universe.
type Uniform struct {
	W uint8
}

// Next returns a uniform key.
func (u Uniform) Next(rng *rand.Rand) uint64 {
	return rng.Uint64() >> (64 - u.W)
}

// Width returns the universe width.
func (u Uniform) Width() uint8 { return u.W }

// Clustered draws keys uniformly from a small hot window [Base,
// Base+Span), modeling the contention workloads of experiment T5.
type Clustered struct {
	W    uint8
	Base uint64
	Span uint64
}

// Next returns a key from the hot window.
func (c Clustered) Next(rng *rand.Rand) uint64 {
	return c.Base + uint64(rng.Int63n(int64(c.Span)))
}

// Width returns the universe width.
func (c Clustered) Width() uint8 { return c.W }

// Zipfian draws keys with a Zipf-distributed rank over a window, mapping
// rank r to key Base + r*Stride: a few keys dominate, as in skewed
// workloads.
type Zipfian struct {
	W      uint8
	Base   uint64
	Stride uint64
	zip    *rand.Zipf
}

// NewZipfian returns a Zipfian generator of n ranks with exponent s > 1.
func NewZipfian(w uint8, base, stride uint64, n uint64, s float64, seed int64) *Zipfian {
	rng := rand.New(rand.NewSource(seed))
	return &Zipfian{
		W:      w,
		Base:   base,
		Stride: stride,
		zip:    rand.NewZipf(rng, s, 1, n-1),
	}
}

// Next returns a Zipf-ranked key. The embedded source is used (rand.Zipf
// binds its own source); the argument is ignored.
func (z *Zipfian) Next(*rand.Rand) uint64 {
	return z.Base + z.zip.Uint64()*z.Stride
}

// Width returns the universe width.
func (z *Zipfian) Width() uint8 { return z.W }

// MovingZipf draws keys from a hot window that drifts across the key
// space as draws accumulate — the hot-range workload that defeats
// static prefix sharding: at any instant nearly all keys come from one
// Span-sized window, and every Period draws the window advances to the
// adjacent position, as a time-ordered or trending key stream does.
// Within the window, offsets are polynomially Zipf-flavored — drawn as
// Span·U^Alpha for uniform U, so the window's head is hottest but its
// tail still carries mass (a tempered Zipf; a log-uniform rank would
// park virtually all mass on the first few keys, which no range
// partition can spread). The draw counter is shared across workers
// (one atomic add per draw), so concurrent goroutines see a single
// coherent window; the generator is safe for concurrent use with
// per-worker rngs.
type MovingZipf struct {
	w      uint8
	span   uint64
	period uint64
	alpha  float64
	ctr    atomic.Uint64
}

// NewMovingZipf returns a moving-window generator over a width-w
// universe with a Span-key window advancing every Period draws and
// in-window skew exponent Alpha (values > 1 skew toward the window
// head; 0 selects the default 1.5; 1 is uniform). Span must be in
// [1, 2^w]; anything else panics here rather than dividing by zero or
// silently generating out-of-universe keys in Next.
func NewMovingZipf(w uint8, span, period uint64, alpha float64) *MovingZipf {
	if span == 0 || (w < 64 && span > 1<<w) {
		panic("workload: MovingZipf span must be in [1, 2^w]")
	}
	if period == 0 {
		period = 1
	}
	if alpha <= 0 {
		alpha = 1.5
	}
	return &MovingZipf{w: w, span: span, period: period, alpha: alpha}
}

// Next returns a skewed key from the current window position.
func (z *MovingZipf) Next(rng *rand.Rand) uint64 {
	n := z.ctr.Add(1)
	universe := ^uint64(0) >> (64 - z.w) // largest key, 2^w - 1
	// Full windows in [0, 2^w): universe/span counts one short when
	// span divides 2^w exactly (the +1 below cannot overflow, since a
	// window count of 2^64-1 would need span == 1 on w == 64, where
	// universe%span == 0).
	windows := universe / z.span
	if universe%z.span == z.span-1 {
		windows++
	}
	if windows == 0 {
		windows = 1
	}
	base := (n / z.period % windows) * z.span
	off := uint64(float64(z.span) * math.Pow(rng.Float64(), z.alpha))
	if off >= z.span {
		off = z.span - 1
	}
	return base + off
}

// Width returns the universe width.
func (z *MovingZipf) Width() uint8 { return z.w }

// SpreadKeys returns n distinct keys spread deterministically over the
// width-w universe (a low-discrepancy golden-ratio sequence). Used for
// prefill so experiments are reproducible. If the universe cannot hold n
// distinct keys at half density, n is clamped to 2^(w-1), so small
// universes stay sparse and the call always terminates.
func SpreadKeys(n int, w uint8) []uint64 {
	if w < 64 && n > 1<<(w-1) {
		n = 1 << (w - 1)
	}
	keys := make([]uint64, 0, n)
	seen := make(map[uint64]bool, n)
	x := uint64(0)
	for len(keys) < n {
		x += 0x9E3779B97F4A7C15 // golden-ratio step: low-discrepancy
		k := uintbits.Mix64(x) >> (64 - w)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// OpKind is the operation class an op mix produces.
type OpKind int

// Operation classes.
const (
	OpPredecessor OpKind = iota
	OpInsert
	OpDelete
	OpContains
)

// Mix is a discrete distribution over operation classes, in percent.
// The percentages must sum to at most 100; the remainder goes to
// OpPredecessor.
type Mix struct {
	InsertPct   int
	DeletePct   int
	ContainsPct int
}

// Pick draws an operation class.
func (m Mix) Pick(rng *rand.Rand) OpKind {
	r := rng.Intn(100)
	if r < m.InsertPct {
		return OpInsert
	}
	r -= m.InsertPct
	if r < m.DeletePct {
		return OpDelete
	}
	r -= m.DeletePct
	if r < m.ContainsPct {
		return OpContains
	}
	return OpPredecessor
}

// String names the mix, e.g. "90/5/5 read/ins/del".
func (m Mix) String() string {
	read := 100 - m.InsertPct - m.DeletePct - m.ContainsPct
	return itoa(read+m.ContainsPct) + "/" + itoa(m.InsertPct) + "/" + itoa(m.DeletePct) + " read/ins/del"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [4]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// ValSizer draws value payload sizes for workloads that carry bytes
// (the network front-end, persistence benchmarks). Sizes are uniform
// in [Min, Max]; Max == Min (or Max == 0) pins them to Min.
type ValSizer struct {
	Min, Max int
}

// Next draws one payload size.
func (v ValSizer) Next(rng *rand.Rand) int {
	if v.Max <= v.Min {
		return v.Min
	}
	return v.Min + rng.Intn(v.Max-v.Min+1)
}

// Fill deterministically fills buf with a compressible-but-nontrivial
// byte pattern derived from key, so stored values can be validated
// without a shadow map: a re-derived fill must match a read-back value.
func (v ValSizer) Fill(buf []byte, key uint64) {
	x := key*0x9E3779B97F4A7C15 + 1
	for i := range buf {
		buf[i] = byte(x >> (8 * (uint(i) % 8)))
		if i%8 == 7 {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
}
