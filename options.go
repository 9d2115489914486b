package skiptrie

import (
	"errors"
	"fmt"
	"time"

	"skiptrie/internal/skiplist"
)

// This file defines the per-constructor option sets. Options used to be
// one shared closure type accepted by every constructor, which made
// inapplicable combinations silently legal: NewMap(WithShards(8))
// compiled, dropped the shard count on the floor, and the caller found
// out in production. The split makes applicability a compile-time
// property — an option's type names exactly the constructors it
// configures — and turns the former silent value clamps into
// construction errors.
//
//   - Option: applicable everywhere (width, seed, metrics, DCSS mode,
//     repair mode). Satisfies all three per-constructor interfaces.
//   - ShardedOption: applicable only to NewSharded (shard counts, the
//     auto-reshard balancer). Passing one to New or NewMap is now a
//     compile error instead of a silent no-op.
//
// Constructors return (value, error): invalid option values — a width
// outside [1, 64], a negative shard count — fail construction with an
// error wrapping ErrInvalidOption instead of being clamped or dropped.
// The Must* forms panic on error for the common static-configuration
// case (and for migrating pre-split callers mechanically).

// ErrInvalidOption is wrapped by every constructor error caused by an
// option carrying an invalid value.
var ErrInvalidOption = errors.New("skiptrie: invalid option")

type options struct {
	width        uint8
	shards       int
	maxShards    int
	autoReshard  bool
	reshardEvery time.Duration
	disableDCSS  bool
	repair       skiplist.RepairMode
	seed         uint64
	metrics      *Metrics
	latRate      float64     // WithLatencySampling rate; 0 = off
	hooks        *TraceHooks // WithTraceHooks sink; nil = off
	err          error       // first validation failure, surfaced by the constructor
}

// finish runs the cross-option validations that need the full option
// set, then arms the latency sampler. Every build*Options funnels
// through it.
func (o *options) finish() error {
	if o.err == nil && o.latRate != 0 && o.metrics == nil {
		o.fail("WithLatencySampling requires WithMetrics")
	}
	if o.err != nil {
		return o.err
	}
	if o.latRate != 0 {
		o.metrics.enableLatency(o.latRate)
	}
	return nil
}

// fail records the first option validation failure.
func (o *options) fail(format string, args ...any) {
	if o.err == nil {
		o.err = fmt.Errorf("%w: %s", ErrInvalidOption, fmt.Sprintf(format, args...))
	}
}

// SetOption is an option applicable to New (the set form). Every
// Option satisfies it.
type SetOption interface{ applySet(*options) }

// MapOption is an option applicable to NewMap. Every Option satisfies
// it.
type MapOption interface{ applyMap(*options) }

// ShardedOption is an option applicable to NewSharded: the shared
// Option set plus the sharding-specific options (WithShards,
// WithMaxShards, WithAutoReshard).
type ShardedOption interface{ applySharded(*options) }

// Option is an option applicable to every constructor. The
// sharding-specific options are deliberately not Options — they are
// ShardedOptions only, so passing one to New or NewMap is a compile
// error rather than a silently ignored setting.
type Option interface {
	SetOption
	MapOption
	ShardedOption
}

// option is the concrete shared-option implementation.
type option func(*options)

func (f option) applySet(o *options)     { f(o) }
func (f option) applyMap(o *options)     { f(o) }
func (f option) applySharded(o *options) { f(o) }

// shardedOption is the concrete sharded-only implementation.
type shardedOption func(*options)

func (f shardedOption) applySharded(o *options) { f(o) }

// WithWidth sets the universe width W = log2(u): keys must be < 2^w.
// Valid widths are 1..64; the default is 64. Smaller universes use
// fewer skiplist levels (log log u) and shallower trie searches.
// Widths outside [1, 64] fail construction with ErrInvalidOption.
func WithWidth(w int) Option {
	return option(func(o *options) {
		if w < 1 || w > 64 {
			o.fail("width %d outside [1, 64]", w)
			return
		}
		o.width = uint8(w)
	})
}

// WithoutDCSS replaces each DCSS with a plain CAS (dropping the second
// guard). Two sites use DCSS: top-level prev-pointer updates and x-fast
// trie pointer swings; skiplist links are plain CASes in both modes. The
// paper proves the structure remains linearizable and lock-free in this
// mode; only the amortized step bound degrades. Exposed for the T7
// ablation experiment.
func WithoutDCSS() Option {
	return option(func(o *options) { o.disableDCSS = true })
}

// WithEagerPrevRepair selects the paper's option (1) for maintaining
// top-level prev pointers: inserts help their successors complete before
// finishing, trading extra write contention for point-contention bounds.
// The default is the paper's choice, option (2): transient backward gaps
// are tolerated and repaired by the in-flight insert. Exposed for the T8
// ablation experiment.
func WithEagerPrevRepair() Option {
	return option(func(o *options) { o.repair = skiplist.RepairEager })
}

// WithSeed seeds tower-height randomness. The default seed is fixed;
// use distinct seeds for statistically independent runs.
//
// Height draws are served from striped generator states (one padded
// lane per key-hash bucket), so the seed and the sequence of inserted
// keys fix the drawn heights — and therefore the structure's shape — when
// all inserts come from a single goroutine. Concurrent writers interleave
// stripe seeding and stepping nondeterministically: shapes stay
// statistically identical but are not reproducible run to run.
func WithSeed(seed uint64) Option {
	return option(func(o *options) { o.seed = seed })
}

// WithMetrics attaches a Metrics collector that aggregates per-operation
// step counts (pointer hops, CAS/DCSS attempts, hash probes). The overhead
// is one short striped-counter update per operation.
func WithMetrics(m *Metrics) Option {
	return option(func(o *options) { o.metrics = m })
}

// WithLatencySampling records sampled per-operation latencies into the
// attached Metrics collector's histograms (MetricsSnapshot.Latency).
// rate is the sampling probability in (0, 1]: each operation draws from
// a striped per-goroutine generator and is timed with probability rate.
// Unsampled operations pay one atomic load and one generator step —
// no timestamp, no allocation — so a rate around 1/64 keeps the
// metered hot path within a few percent of its unsampled cost while
// still resolving tail percentiles on any sustained workload.
//
// Requires WithMetrics on the same constructor call; rates outside
// (0, 1] fail construction with ErrInvalidOption. Structures sharing
// one Metrics collector share its histograms; the first sampling rate
// armed on a collector wins and later rates are ignored.
func WithLatencySampling(rate float64) Option {
	return option(func(o *options) {
		if !(rate > 0 && rate <= 1) { // != NaN-safe: rejects NaN too
			o.fail("latency sampling rate %v outside (0, 1]", rate)
			return
		}
		o.latRate = rate
	})
}

// WithTraceHooks attaches lifecycle trace callbacks (see TraceHooks for
// the event catalog and the callback contract). Hooks observe
// maintenance paths — migrations, epoch pins, sweeps, journal
// truncation, watch windows, dump progress — not per-operation reads
// and writes, so enabling them does not perturb point-op latency.
// Enabling hooks also tags the structure's background goroutines with
// pprof labels and wraps reshard migrations in runtime/trace regions.
func WithTraceHooks(h TraceHooks) Option {
	return option(func(o *options) { o.hooks = &h })
}

// WithShards sets the initial shard count for NewSharded. The count is
// rounded up to a power of two and clamped so every shard keeps at
// least a 1-bit sub-universe; the default (0) is GOMAXPROCS rounded up
// to a power of two. Negative counts fail construction with
// ErrInvalidOption.
func WithShards(n int) ShardedOption {
	return shardedOption(func(o *options) {
		if n < 0 {
			o.fail("negative shard count %d", n)
			return
		}
		o.shards = n
	})
}

// WithMaxShards caps how far Split (manual or balancer-driven) may
// subdivide the universe, with the same rounding and clamping as
// WithShards and a floor at the initial shard count. The default (0)
// allows the package maximum (4096 shards). Negative caps fail
// construction with ErrInvalidOption.
func WithMaxShards(n int) ShardedOption {
	return shardedOption(func(o *options) {
		if n < 0 {
			o.fail("negative max shard count %d", n)
			return
		}
		o.maxShards = n
	})
}

// WithAutoReshard attaches a background balancer that samples per-shard
// load every interval (0 selects the 50ms default) and splits hot
// shards / merges cold buddies online, within the WithMaxShards cap.
// The balancer samples op counters and shard lengths — one cheap pass
// over the shard table per interval — and issues at most one reshard
// per tick. Call Close to stop it. Negative intervals fail construction
// with ErrInvalidOption.
func WithAutoReshard(interval time.Duration) ShardedOption {
	return shardedOption(func(o *options) {
		if interval < 0 {
			o.fail("negative reshard interval %v", interval)
			return
		}
		o.autoReshard = true
		o.reshardEvery = interval
	})
}

func defaultOptions() options { return options{width: 64} }

func buildSetOptions(opts []SetOption) (options, error) {
	o := defaultOptions()
	for _, fn := range opts {
		fn.applySet(&o)
	}
	return o, o.finish()
}

func buildMapOptions(opts []MapOption) (options, error) {
	o := defaultOptions()
	for _, fn := range opts {
		fn.applyMap(&o)
	}
	return o, o.finish()
}

func buildShardedOptions(opts []ShardedOption) (options, error) {
	o := defaultOptions()
	for _, fn := range opts {
		fn.applySharded(&o)
	}
	return o, o.finish()
}
