package skiptrie

import (
	"context"
	rtrace "runtime/trace"
	"sync"

	"skiptrie/internal/reshard"
)

// Sharded is a concurrent ordered map that partitions the key universe
// by the top bits into independent SkipTrie shards. It is the same
// engine as Map, which is that engine fixed at one shard, so it offers
// the Map API with identical sequential semantics; what changes is
// scaling behaviour: point operations route to their home shard in
// O(1), so updates in different shards contend on nothing — no shared
// skiplist towers, x-fast trie nodes, hash buckets or cache lines.
// Ordered queries answer from the home shard and stitch across shard
// boundaries by probing neighbor shards' extrema, preserving global key
// order.
//
// Point operations (Store, Load, LoadOrStore, Delete) and ordered
// queries answered inside one shard keep Map's linearizability. An
// ordered query whose answer crosses a shard boundary observes each
// shard at a different instant and is therefore weakly consistent,
// like Range and Descend already are on Map: under concurrent
// cross-shard movement it may return a key farther from x than the
// true extremum, or miss, but any key it returns was present with that
// value when its shard was probed.
//
// Use Sharded over Map when the structure is written from many
// goroutines and keys spread across the universe; use Map when the
// workload is read-mostly, fits one goroutine, or needs the absolute
// minimum cost per ordered query (each empty shard between two keys
// adds one extremum probe to a stitched query). A Sharded write takes
// its home shard's latch in shared mode and waits only while a Split or
// Merge hands that shard off; Map's one shard never reshards, so its
// writes never wait.
//
// The partition is dynamic: Split and Merge reshape it online (keys
// migrate between shards while readers and writers keep running), and
// WithAutoReshard attaches a background balancer that does so
// automatically when one shard absorbs a disproportionate share of the
// write traffic or resident keys — the defense against hot-range
// workloads that would otherwise serialize in one shard. Call Close to
// stop the balancer when the map is no longer needed.
//
// Create one with NewSharded; the zero value is not usable.
type Sharded[V any] struct {
	engine[V]
	bal       *reshard.Balancer
	closeOnce sync.Once
}

// NewSharded returns an empty sharded ordered map. It accepts any
// ShardedOption: the shared Option set plus WithShards, WithMaxShards
// and WithAutoReshard; WithSeed seeds the i'th shard ever created with
// seed+i so shard shapes stay reproducible yet independent. It fails
// with an error wrapping ErrInvalidOption when an option carries an
// invalid value.
func NewSharded[V any](opts ...ShardedOption) (*Sharded[V], error) {
	o, err := buildShardedOptions(opts)
	if err != nil {
		return nil, err
	}
	s := &Sharded[V]{engine: newEngine[V](o, o.shards, o.maxShards)}
	if o.autoReshard {
		s.bal = reshard.New(shardedTarget[V]{s}, reshard.Policy{
			Interval: o.reshardEvery,
		})
		s.bal.Start()
	}
	return s, nil
}

// MustNewSharded is NewSharded, panicking on error — for static
// configurations known valid at compile time.
func MustNewSharded[V any](opts ...ShardedOption) *Sharded[V] {
	s, err := NewSharded[V](opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// shardedTarget routes the balancer's actions through the public
// Split/Merge methods (so metrics are recorded) and feeds the skew
// gauge on every sample.
type shardedTarget[V any] struct{ s *Sharded[V] }

func (a shardedTarget[V]) Width() uint8 { return a.s.t.Width() }

func (a shardedTarget[V]) Stats() []reshard.ShardStat {
	infos := a.s.t.Buckets()
	out := make([]reshard.ShardStat, len(infos))
	lens := make([]int, len(infos))
	for i, in := range infos {
		out[i] = reshard.ShardStat{Lo: in.Lo, Bits: in.Bits, Len: in.Len, Ops: in.Ops}
		lens[i] = in.Len
	}
	if skew := reshard.SkewOf(lens); skew > 0 {
		a.s.m.setSkew(skew)
	}
	return out
}

func (a shardedTarget[V]) Split(lo uint64) error { return a.s.Split(lo) }
func (a shardedTarget[V]) Merge(lo uint64) error { return a.s.Merge(lo) }

// Split divides the shard owning key into two half-range children,
// migrating its resident keys online: concurrent point operations stay
// linearizable throughout (writes to the migrating range briefly wait
// during the final delta handoff; reads never wait). It fails when the
// shard is already at the WithMaxShards depth. Most callers want
// WithAutoReshard instead; Split exists for tests and for callers with
// out-of-band knowledge of incoming load.
func (s *Sharded[V]) Split(key uint64) error {
	if s.h != nil {
		defer rtrace.StartRegion(context.Background(), "skiptrie.Split").End()
	}
	ms, err := s.t.Split(key)
	if err == nil {
		s.m.recordReshard(true, ms.Moved+ms.Dirty, ms.Duration, ms.WarmCopy, ms.Resync)
	}
	return err
}

// Merge rejoins the shard owning key with its buddy (the shard covering
// the other half of their common parent range), migrating both shards'
// keys online with the same guarantees as Split. It fails on a
// single-shard map and when the buddy has been split finer.
func (s *Sharded[V]) Merge(key uint64) error {
	if s.h != nil {
		defer rtrace.StartRegion(context.Background(), "skiptrie.Merge").End()
	}
	ms, err := s.t.Merge(key)
	if err == nil {
		s.m.recordReshard(false, ms.Moved+ms.Dirty, ms.Duration, ms.WarmCopy, ms.Resync)
	}
	return err
}

// Close stops the WithAutoReshard balancer, if one is attached, waits
// for it to exit, and drops the balancer's reference to the map (the
// balancer holds a sampling target that reaches every shard; releasing
// it lets the structure be collected once the caller's own references
// are gone). The map remains fully usable afterwards; Close only ends
// automatic resharding. Safe to call multiple times and from multiple
// goroutines.
//
// Iterators and snapshots taken before Close remain safe to drain and
// must still be closed independently: they hold their own shard
// references and epoch pins, none of which route through the balancer.
func (s *Sharded[V]) Close() {
	s.closeOnce.Do(func() {
		if s.bal != nil {
			s.bal.Stop()
			s.bal = nil
		}
	})
}

// Shards returns the current shard count.
func (s *Sharded[V]) Shards() int { return s.t.Shards() }

// ShardLens returns each shard's key count in key order, for balance
// diagnostics: the spread shows how well the current partition matches
// the key distribution.
func (s *Sharded[V]) ShardLens() []int { return s.t.ShardLens() }

// Keys returns all keys in ascending order (a weakly consistent
// snapshot), preallocated from Len.
func (s *Sharded[V]) Keys() []uint64 {
	keys := make([]uint64, 0, s.Len())
	it := s.t.MakeIter(nil)
	for ok := it.First(); ok; ok = it.Next() {
		keys = append(keys, it.Key())
	}
	return keys
}
