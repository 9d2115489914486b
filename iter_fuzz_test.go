package skiptrie

import (
	"testing"
)

// FuzzIterVsRange interprets the fuzz input as a program of Store and
// Delete operations plus a set of scan origins, replays it into a Map
// and a Sharded map, and then — on the quiesced structures — checks
// that the pull-based iterator yields exactly the Range callback
// sequence forward and exactly the Descend sequence backward, from
// every origin. Range and Iter share one traversal code path, so a
// divergence means the cursor's positioning/stepping state machine
// (seeks, direction switches, shard-edge crossings) disagrees with the
// plain loop.
//
// Run with `go test -fuzz=FuzzIterVsRange` for continuous fuzzing; the
// seed corpus runs in normal test mode (and in CI's fuzz smoke stage).
func FuzzIterVsRange(f *testing.F) {
	f.Add([]byte{0x01, 0xFF, 0x21, 0xFF, 0x41, 0xFF, 0x81, 0xFF})
	f.Add([]byte{0x1F, 0xFF, 0x20, 0x00, 0x3F, 0xFF, 0x40, 0x00})
	f.Add([]byte{0x00, 0x01, 0x80, 0x01, 0x00, 0x02, 0x80, 0x02, 0x00, 0x03})
	f.Add([]byte{0xE0, 0x00, 0xC0, 0x00, 0xA5, 0x5A, 0x5A, 0xA5})
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 2048 {
			t.Skip("program too long")
		}
		const w = 13
		mp := MustNewMap[uint64](WithWidth(w), WithSeed(3))
		sh := MustNewSharded[uint64](WithWidth(w), WithShards(8), WithSeed(7))

		// Replay: top bit of the first byte selects Store vs Delete, the
		// rest is key material; every key doubles as a scan origin.
		origins := []uint64{0, 1<<w - 1}
		for i := 0; i+1 < len(program); i += 2 {
			key := uint64(program[i]&0x1F)<<8 | uint64(program[i+1])
			origins = append(origins, key)
			if program[i]&0x80 != 0 {
				mp.Delete(key)
				sh.Delete(key)
			} else {
				mp.Store(key, key*2654435761)
				sh.Store(key, key*2654435761)
			}
		}

		type kv struct{ k, v uint64 }
		for _, from := range origins {
			for name, s := range map[string]interface {
				Range(uint64, func(uint64, uint64) bool)
				Descend(uint64, func(uint64, uint64) bool)
				Iter() *Iter[uint64]
			}{"map": mp, "sharded": sh} {
				var want []kv
				s.Range(from, func(k, v uint64) bool { want = append(want, kv{k, v}); return true })
				var got []kv
				it := s.Iter()
				for ok := it.Seek(from); ok; ok = it.Next() {
					got = append(got, kv{it.Key(), it.Value()})
				}
				if len(got) != len(want) {
					t.Fatalf("%s: Iter from %#x yielded %d pairs, Range %d", name, from, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: from %#x index %d: Iter %+v, Range %+v", name, from, i, got[i], want[i])
					}
				}

				want = want[:0]
				s.Descend(from, func(k, v uint64) bool { want = append(want, kv{k, v}); return true })
				got = got[:0]
				for ok := it.SeekLE(from); ok; ok = it.Prev() {
					got = append(got, kv{it.Key(), it.Value()})
				}
				if len(got) != len(want) {
					t.Fatalf("%s: backward Iter from %#x yielded %d pairs, Descend %d", name, from, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: backward from %#x index %d: Iter %+v, Descend %+v", name, from, i, got[i], want[i])
					}
				}
			}
		}
	})
}
