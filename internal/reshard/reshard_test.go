package reshard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skiptrie/internal/shard"
)

// fakeTarget is a scripted partition: a bucket list the test mutates
// through Split/Merge, with settable per-shard counters.
type fakeTarget struct {
	width  uint8
	shards []ShardStat
	splits []uint64
	merges []uint64
	fail   bool
}

func (f *fakeTarget) Width() uint8 { return f.width }

func (f *fakeTarget) Stats() []ShardStat {
	return append([]ShardStat(nil), f.shards...)
}

func (f *fakeTarget) find(lo uint64) int {
	for i, s := range f.shards {
		span := uint64(1) << (uint(f.width) - uint(s.Bits))
		if lo >= s.Lo && lo-s.Lo < span {
			return i
		}
	}
	panic(fmt.Sprintf("no shard contains %#x", lo))
}

func (f *fakeTarget) Split(lo uint64) error {
	if f.fail {
		return errors.New("scripted failure")
	}
	f.splits = append(f.splits, lo)
	i := f.find(lo)
	s := f.shards[i]
	half := uint64(1) << (uint(f.width) - uint(s.Bits) - 1)
	left := ShardStat{Lo: s.Lo, Bits: s.Bits + 1, Len: s.Len / 2, Ops: s.Ops / 2}
	right := ShardStat{Lo: s.Lo + half, Bits: s.Bits + 1, Len: s.Len - s.Len/2, Ops: s.Ops - s.Ops/2}
	f.shards = append(f.shards[:i], append([]ShardStat{left, right}, f.shards[i+1:]...)...)
	return nil
}

func (f *fakeTarget) Merge(lo uint64) error {
	if f.fail {
		return errors.New("scripted failure")
	}
	f.merges = append(f.merges, lo)
	i := f.find(lo)
	a, b := f.shards[i], f.shards[i+1]
	merged := ShardStat{Lo: a.Lo, Bits: a.Bits - 1, Len: a.Len + b.Len, Ops: a.Ops + b.Ops}
	f.shards = append(f.shards[:i], append([]ShardStat{merged}, f.shards[i+2:]...)...)
	return nil
}

// evenShards builds n equal shards of a width-w universe with the given
// per-shard load.
func evenShards(w uint8, n int, length int, ops uint64) []ShardStat {
	bits := uint8(0)
	for 1<<bits < n {
		bits++
	}
	out := make([]ShardStat, n)
	for i := range out {
		out[i] = ShardStat{Lo: uint64(i) << (w - bits), Bits: bits, Len: length, Ops: ops}
	}
	return out
}

func TestTickSplitsHotShard(t *testing.T) {
	f := &fakeTarget{width: 16, shards: evenShards(16, 4, 100, 0)}
	b := New(f, Policy{MinOps: 100, MinLen: 1 << 20})
	b.Tick() // baseline sample: all deltas are absorbed as creation noise
	// Shard 2 absorbs nearly all traffic in the next interval.
	for i := range f.shards {
		f.shards[i].Ops += 10
	}
	f.shards[2].Ops += 4000
	b.Tick()
	if len(f.splits) != 1 || f.splits[0] != f.shards[2].Lo && f.splits[0] != uint64(2)<<14 {
		t.Fatalf("splits = %#x, want one split of shard 2 (lo %#x)", f.splits, uint64(2)<<14)
	}
	if st := b.Stats(); st.Splits != 1 || st.Samples != 2 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestTickSplitsResidencySkew(t *testing.T) {
	f := &fakeTarget{width: 16, shards: evenShards(16, 4, 10, 0)}
	f.shards[1].Len = 100000 // residency skew with no traffic at all
	b := New(f, Policy{MinLen: 1024, MinOps: 1 << 62})
	b.Tick()
	if len(f.splits) != 1 || f.splits[0] != uint64(1)<<14 {
		t.Fatalf("splits = %#x, want shard 1 (lo %#x)", f.splits, uint64(1)<<14)
	}
	if st := b.Stats(); st.LastSkew < 3.5 {
		t.Fatalf("LastSkew = %v, want ~4 (one shard holds ~all keys)", st.LastSkew)
	}
}

func TestTickRespectsGates(t *testing.T) {
	// Hot in relative share but below MinOps: no action. MinShards
	// holds the idle partition together so no merge interferes either.
	f := &fakeTarget{width: 16, shards: evenShards(16, 4, 10, 0)}
	b := New(f, Policy{MinOps: 1000, MinLen: 1 << 20, MinShards: 4})
	b.Tick()
	f.shards[0].Ops += 100 // 100% of traffic, but tiny
	b.Tick()
	if len(f.splits) != 0 || len(f.merges) != 0 {
		t.Fatalf("action issued below MinOps: splits %#x merges %#x", f.splits, f.merges)
	}
	// MaxShards stops splitting.
	f2 := &fakeTarget{width: 16, shards: evenShards(16, 4, 10, 0)}
	b2 := New(f2, Policy{MinOps: 10, MinLen: 1 << 20, MaxShards: 4, MinShards: 4})
	b2.Tick()
	f2.shards[3].Ops += 5000
	b2.Tick()
	if len(f2.splits) != 0 {
		t.Fatalf("split issued at MaxShards: %#x", f2.splits)
	}
}

func TestTickMergesColdBuddies(t *testing.T) {
	f := &fakeTarget{width: 16, shards: evenShards(16, 4, 10, 0)}
	// Shards 0,1 are cold buddies; shard 2 carries the traffic (below
	// the hot trigger so no split preempts the merge).
	b := New(f, Policy{MinOps: 1 << 62, MinLen: 1 << 20, MinShards: 2, HotFactor: 8})
	b.Tick()
	for i := range f.shards {
		f.shards[i].Ops += 5
	}
	b.Tick()
	if len(f.merges) != 1 || f.merges[0] != 0 {
		t.Fatalf("merges = %#x, want shard 0", f.merges)
	}
	if f.shards[0].Bits != 1 {
		t.Fatalf("merged shard bits = %d, want 1", f.shards[0].Bits)
	}
	// MinShards floor: at 3 shards (one bits-1, two bits-2), merging the
	// remaining buddy pair would go to 2, still >= MinShards, so one
	// more merge; then the bits-1 pair, reaching MinShards.
	b.Tick()
	b.Tick()
	if len(f.shards) != 2 {
		t.Fatalf("shards = %d after repeated ticks, want MinShards floor 2", len(f.shards))
	}
	b.Tick()
	if len(f.shards) != 2 {
		t.Fatalf("merge below MinShards: %d shards", len(f.shards))
	}
}

func TestTickCountsFailures(t *testing.T) {
	f := &fakeTarget{width: 16, shards: evenShards(16, 2, 10, 0), fail: true}
	b := New(f, Policy{MinOps: 10, MinLen: 1 << 20, MinShards: 2})
	b.Tick()
	f.shards[0].Ops += 5000
	b.Tick()
	if st := b.Stats(); st.Failures != 1 || st.Splits != 0 {
		t.Fatalf("Stats = %+v, want one failure", st)
	}
}

func TestStartStopIdempotent(t *testing.T) {
	f := &fakeTarget{width: 16, shards: evenShards(16, 2, 10, 0)}
	b := New(f, Policy{Interval: time.Millisecond, MinOps: 1 << 62, MinLen: 1 << 20})
	b.Start()
	b.Start()
	time.Sleep(5 * time.Millisecond)
	b.Stop()
	b.Stop()
	if st := b.Stats(); st.Samples == 0 {
		t.Fatal("background loop never sampled")
	}
	// Stop without Start must not hang.
	b2 := New(f, Policy{})
	b2.Stop()
}

// TestBalancerOverRealTrie drives the balancer against a live
// shard.Trie absorbing a parked hot-range workload, concurrently with
// the writers: the partition must end finer in the hot region, with
// lower residency skew than the static start, and stay valid.
func TestBalancerOverRealTrie(t *testing.T) {
	const w = 16
	tr := shard.New[uint64](shard.Config{Width: w, Shards: 4, MaxShards: 64, Seed: 9})
	// Merges fold the cold siblings a split leaves behind, and once the
	// writers stop every shard turns cold, so the shard count can fall
	// back to 4 between seeing a split and checking it. MinShards 5
	// keeps merges from ever taking the count below 5 again.
	b := New(ForTrie(tr), Policy{
		Interval:  time.Millisecond,
		MinOps:    64,
		MinLen:    256,
		MinShards: 5,
	})

	// Static skew: every key lands in the top quarter of the universe.
	// The writers keep the range hot until the split is seen.
	hotBase := uint64(3) << (w - 2)
	var stop atomic.Bool
	var wg sync.WaitGroup
	b.Start()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				tr.Store(hotBase+uint64((g*6000+i%6000)%(1<<(w-2))), uint64(i), nil)
			}
		}(g)
	}
	deadline := time.Now().Add(10 * time.Second)
	for (b.Stats().Splits == 0 || tr.Shards() <= 4) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	b.Stop()

	st := b.Stats()
	if st.Splits == 0 {
		t.Fatalf("balancer never split under a parked hot range: %+v (buckets %+v)", st, tr.Buckets())
	}
	if tr.Shards() <= 4 {
		t.Fatalf("Shards = %d, want > 4", tr.Shards())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// The hot region must have been subdivided: some shard in the top
	// quarter has more prefix bits than the initial 2.
	finer := false
	for _, in := range tr.Buckets() {
		if in.Lo >= hotBase && in.Bits > 2 {
			finer = true
		}
	}
	if !finer {
		t.Fatalf("hot region not subdivided: %+v", tr.Buckets())
	}
}
