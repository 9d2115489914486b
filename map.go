package skiptrie

// Map is a concurrent ordered map from uint64 keys to values of type V,
// built on the same SkipTrie structure as the set API and adding
// predecessor/successor queries over keys. Values are stored unboxed
// inline in the structure's level-0 nodes: no interface conversion or
// other per-operation allocation happens on the Store-existing-key or
// Load paths. Create one with NewMap; the zero value is not usable.
//
// Map, Sharded and SkipTrie are faces of one engine, a sharded trie; a
// Map is that engine fixed at one shard. A one-shard trie never
// reshards, so the shard latch a write takes is only ever taken in
// shared mode, and Map writes never wait on it.
//
// All structural operations (key membership, ordering, iteration) are
// lock-free, exactly as in the set API. Reading or overwriting the value
// attached to one key is the exception: value access serializes through a
// word-sized per-node spinlock, so a stalled overwriter can briefly block
// readers of that same key's value (and hot-key value reads serialize).
// This is the price of keeping values unboxed; use the set API if you
// need the pure lock-free guarantee.
type Map[V any] struct {
	engine[V]
}

// NewMap returns an empty ordered map. It accepts any MapOption (the
// shared Option set); sharding options are NewSharded-only and do not
// compile here. It fails with an error wrapping ErrInvalidOption when
// an option carries an invalid value.
func NewMap[V any](opts ...MapOption) (*Map[V], error) {
	o, err := buildMapOptions(opts)
	if err != nil {
		return nil, err
	}
	return &Map[V]{newEngine[V](o, 1, 1)}, nil
}

// MustNewMap is NewMap, panicking on error — for static configurations
// known valid at compile time.
func MustNewMap[V any](opts ...MapOption) *Map[V] {
	m, err := NewMap[V](opts...)
	if err != nil {
		panic(err)
	}
	return m
}
