package skiptrie

import (
	"testing"
)

// FuzzStoreBatchVsStores interprets the fuzz input as a sequence of
// batches — arbitrary length, unsorted, duplicate-laden, with
// out-of-universe keys mixed in — and replays each batch three ways: as
// Map.StoreBatch, as Sharded.StoreBatch (interleaved with forced Split
// and Merge so chunks land on freshly migrated shards), and as per-key
// Stores into a plain sequential model. Any divergence in lookups,
// lengths, or final Range contents fails. This is the differential argument that
// the batched write path (sortBatch + hinted descents + shard chunking)
// preserved per-key Store semantics exactly.
//
// Run with `go test -fuzz=FuzzStoreBatchVsStores` for continuous
// fuzzing; the seed corpus runs in normal test mode and CI's fuzz
// smoke stage runs it for 20s.
func FuzzStoreBatchVsStores(f *testing.F) {
	// Seeds: sorted run, reverse run, duplicates, boundary straddlers,
	// out-of-universe bytes (the 3 high bits select >= 2^13 keys).
	f.Add([]byte{0x00, 0x01, 0x00, 0x02, 0x00, 0x03, 0x00, 0x04})
	f.Add([]byte{0x10, 0x04, 0x10, 0x03, 0x10, 0x02, 0x10, 0x01})
	f.Add([]byte{0x05, 0x05, 0x05, 0x05, 0x05, 0x05})
	f.Add([]byte{0x1F, 0xFF, 0x20, 0x00, 0x3F, 0xFF, 0x40, 0x00})
	f.Add([]byte{0xFF, 0xFF, 0x00, 0x01, 0xE0, 0x00, 0x02, 0x02})
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 4096 {
			t.Skip("program too long")
		}
		const w = 13 // keys fold to 13 bits; higher bits fall out of universe
		mp := MustNewMap[uint64](WithWidth(w), WithSeed(3))
		sh := MustNewSharded[uint64](WithWidth(w), WithShards(4), WithMaxShards(64), WithSeed(7))
		model := map[uint64]uint64{}

		// Cut the program into batches: the first byte of each chunk
		// picks the batch length, the rest supply 2-byte keys. Keys
		// keep all 16 bits so roughly 7/8 of them are out of universe
		// sometimes — exactly the skip path we need covered.
		step := 0
		for i := 0; i < len(program); {
			n := int(program[i]%32) + 1
			i++
			var keys []uint64
			var vals []uint64
			for j := 0; j < n && i+1 < len(program); j++ {
				k := uint64(program[i])<<8 | uint64(program[i+1])
				if program[i]&0x80 == 0 {
					k &= (1 << w) - 1 // mostly in-universe...
				} // ...but the top half of byte space stays raw: out of universe
				i += 2
				keys = append(keys, k)
				vals = append(vals, uint64(step)*2654435761+k)
				step++
			}
			if len(keys) == 0 {
				break
			}
			mp.StoreBatch(keys, vals)
			sh.StoreBatch(keys, vals)
			for j, k := range keys {
				if k < 1<<w {
					model[k] = vals[j]
				}
			}
			// Force online migration between batches so later chunks
			// land in buckets a drain just filled from its sources'
			// pinned copy and journal replay.
			switch step % 3 {
			case 0:
				sh.Split(keys[0] & ((1 << w) - 1))
			case 1:
				sh.Merge(keys[len(keys)-1] & ((1 << w) - 1))
			}
		}

		if mp.Len() != len(model) || sh.Len() != len(model) {
			t.Fatalf("Len: map=%d sharded=%d model=%d", mp.Len(), sh.Len(), len(model))
		}
		for k, wv := range model {
			if v, ok := mp.Load(k); !ok || v != wv {
				t.Fatalf("map Load(%d) = %d,%v want %d,true", k, v, ok, wv)
			}
			if v, ok := sh.Load(k); !ok || v != wv {
				t.Fatalf("sharded Load(%d) = %d,%v want %d,true", k, v, ok, wv)
			}
		}
		type kv struct{ k, v uint64 }
		var mpAll, shAll []kv
		mp.Range(0, func(k, v uint64) bool { mpAll = append(mpAll, kv{k, v}); return true })
		sh.Range(0, func(k, v uint64) bool { shAll = append(shAll, kv{k, v}); return true })
		if len(mpAll) != len(shAll) {
			t.Fatalf("Range lengths: map=%d sharded=%d", len(mpAll), len(shAll))
		}
		for i := range mpAll {
			if mpAll[i] != shAll[i] {
				t.Fatalf("Range[%d]: map=%+v sharded=%+v", i, mpAll[i], shAll[i])
			}
		}
		if err := mp.Validate(); err != nil {
			t.Fatalf("map invariants: %v", err)
		}
		if err := sh.Validate(); err != nil {
			t.Fatalf("sharded invariants: %v", err)
		}
	})
}
