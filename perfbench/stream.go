package main

import (
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"sort"
)

// This file generates every input the benchmark feeds the program. All
// of it comes from the --seed argument through PCG streams and is built
// before any timing starts: the timed loops draw no random numbers and
// share no counters.

type opKind uint8

const (
	// In-process (Sharded[uint64]) operations.
	opLoad opKind = iota
	opPred
	opSucc
	opRange
	opStore
	opDelete
	opBatch // StoreBatch of batchLen keys
	opSplit
	opMerge
	opRenew // Snapshot, Diff against the previous one, Close the previous one
	// Wire operations.
	opGet
	opSet
	opDel
	opScan
	opSnapScan
)

var opNames = [...]string{
	opLoad: "Load", opPred: "Predecessor", opSucc: "Successor", opRange: "Range",
	opStore: "Store", opDelete: "Delete", opBatch: "StoreBatch", opSplit: "Split",
	opMerge: "Merge", opRenew: "Snapshot", opGet: "GET", opSet: "SET", opDel: "DEL",
	opScan: "SCAN", opSnapScan: "SNAPSHOT-SCAN",
}

// op is one generated operation. key is the key, query point, scan
// start or split key. aux depends on the kind: the expected answer of a
// read-ordered query, the permanent-key floor of a write-churn
// predecessor, the offset of a batch in its worker's batch keys, a wire
// key's rank, or the index of the first permanent wire key at or after a
// scan start.
type op struct {
	kind opKind
	key  uint64
	aux  uint64
}

// keyOps is how many key operations op counts as in throughput: a
// StoreBatch of B keys counts as B, maintenance counts as none.
func (o *op) keyOps() uint64 {
	switch o.kind {
	case opBatch:
		return batchLen
	case opSplit, opMerge, opRenew:
		return 0
	}
	return 1
}

// nothing marks a read-ordered query whose correct answer is "no key".
const nothing = ^uint64(0)

// Fixed shape of every run.
const (
	workers  = 2  // closed-loop workers or connections
	segments = 4  // equal slices of each worker's stream; figures are medians over them
	batchLen = 16 // keys per write-churn StoreBatch run
	pipeline = 16 // requests per wire pipeline window
	scanLen  = 16 // keys per Range / SCAN
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// mix64 is the splitmix64 finalizer, a bijection on uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// value is the in-process value stored under key.
func value(key uint64) uint64 { return mix64(key ^ 0x5bd1e995) }

// appendWireValue appends the wire value stored under key: 16 to 128
// bytes, all derived from the key.
func appendWireValue(dst []byte, key uint64) []byte {
	n := 16 + int(mix64(key)%113)
	var w [8]byte
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(w[:], mix64(key+uint64(i)))
		dst = append(dst, w[:min(8, n-i)]...)
	}
	return dst
}

// pick draws an index from integer weights.
func pick(r *rand.Rand, weights []int, total int) int {
	u := r.IntN(total)
	for i, w := range weights {
		if u < w {
			return i
		}
		u -= w
	}
	return len(weights) - 1
}

// perWorker splits a total op budget into equal per-worker streams
// whose length is a whole number of segments (and of wire windows).
func perWorker(total, unit int) int {
	n := total / workers / (segments * unit) * (segments * unit)
	return max(n, segments*unit)
}

// --- read-ordered ---

const (
	roWidth   = 32
	roKeyBits = 20 // 2^20 resident keys
	roStride  = roWidth - roKeyBits
)

type roInput struct {
	keys []uint64 // sorted; keys[i] lies in [i<<roStride, (i+1)<<roStride)
	ops  [workers][]op
}

// genReadOrdered builds the key set (one key per 2^12-wide stratum, so
// keys are distinct, sorted and spread over [0, 2^32)) and the per-worker
// op streams: 35% Load, 25% Predecessor and 25% Successor of uniform
// points, 5% Range of 16 keys, 10% Store over an existing key. Every
// query's correct answer is worked out here.
func genReadOrdered(seed uint64, total int) *roInput {
	in := &roInput{keys: make([]uint64, 1<<roKeyBits)}
	r := newRand(seed, 100)
	for i := range in.keys {
		in.keys[i] = uint64(i)<<roStride | r.Uint64N(1<<roStride)
	}
	n := perWorker(total, 1)
	weights := []int{35, 25, 25, 5, 10}
	kinds := []opKind{opLoad, opPred, opSucc, opRange, opStore}
	for w := range in.ops {
		r := newRand(seed, 101+uint64(w))
		ops := make([]op, n)
		for i := range ops {
			k := kinds[pick(r, weights, 100)]
			o := op{kind: k}
			switch k {
			case opLoad, opStore:
				o.key = in.keys[r.IntN(len(in.keys))]
			default:
				o.key = r.Uint64N(1 << roWidth)
				o.aux = in.answer(k, o.key)
			}
			ops[i] = o
		}
		in.ops[w] = ops
	}
	return in
}

// answer returns the correct result of an ordered query at x: the
// predecessor or successor key, or for Range the index of the first key
// >= x; nothing when there is none.
func (in *roInput) answer(k opKind, x uint64) uint64 {
	i := int(x >> roStride) // the stratum holding x
	succ := i               // index of the first key >= x
	if in.keys[i] < x {
		succ = i + 1
	}
	switch k {
	case opPred:
		if in.keys[i] <= x {
			return in.keys[i]
		}
		if i == 0 {
			return nothing
		}
		return in.keys[i-1]
	case opSucc:
		if succ == len(in.keys) {
			return nothing
		}
		return in.keys[succ]
	default: // opRange
		return uint64(succ)
	}
}

// --- write-churn ---

const (
	wcWidth     = 32
	wcSlotShift = 14      // permanent key i is i<<14
	wcBacklog   = 1 << 13 // each worker's own outstanding inserts
	wcPermanent = 1<<18 - workers*wcBacklog
	wcHotSlots  = 1 << 12 // permanent slots per hot window (~2.7 MB of nodes with the churn keys)
	wcHotPeriod = 1 << 12 // ops per worker before the hot window advances
	wcRenews    = 8       // snapshot renewals per segment (worker 1)
	wcPreRoll   = 1 << 16 // generator ops run before the stream to fill the backlog
	// wcShards starts write-churn with 16 shards of ~16k keys, so a
	// Split or Merge migrates ~20k keys in ~50 ms; at the default 2
	// shards each one moved ~150k keys and took ~0.7 s, and migration
	// alone filled most of the window.
	wcShards = 16
)

type wcInput struct {
	backlog [workers][]uint64 // inserted at set-up, deleted first (FIFO)
	ops     [workers][]op
	batches [workers][]uint64 // opBatch keys, batchLen per run, sorted per run
	final   [workers]int      // each worker's outstanding inserts after its stream

	renewEvery int // worker 1's data ops between snapshot renewals
}

func permanentKey(slot uint64) uint64 { return slot << wcSlotShift }

// churnKey returns worker w's churn key in permanent slot slot: its low
// two bits are w+1, so it never equals a permanent key or the other
// worker's key.
func churnKey(r *rand.Rand, slot uint64, w int) uint64 {
	off := (1 + r.Uint64N(1<<wcSlotShift/4-1)) << 2
	return slot<<wcSlotShift | off | uint64(w+1)
}

// genWriteChurn builds the write-churn streams. Key-ops are 40% fresh
// inserts (half single Stores, half sorted 16-key StoreBatch runs
// spread over the hot window), 40% Deletes of the worker's own oldest
// outstanding insert, 15% Loads of permanent keys and 5% Predecessors,
// all inside a hot window of wcHotSlots permanent slots that advances
// every wcHotPeriod ops. In every segment worker 0 splits the hot
// window's shard a quarter of the way in and merges it back three
// quarters of the way in, and worker 1 renews its snapshot wcRenews
// times. Each worker's backlog comes from running its generator for
// wcPreRoll ops before the stream starts, so the first Deletes remove
// keys just like the later ones do.
func genWriteChurn(seed uint64, total int) *wcInput {
	n := perWorker(total, wcRenews)
	seg := n / segments
	in := &wcInput{renewEvery: seg / wcRenews}
	// Per-call weights chosen so that key-ops split 20/20/40/15/5
	// between Store, StoreBatch keys, Delete, Load and Predecessor.
	weights := []int{80, 5, 160, 60, 20}
	kinds := []opKind{opStore, opBatch, opDelete, opLoad, opPred}
	const total4 = 325
	const windows = wcPermanent / wcHotSlots
	for w := 0; w < workers; w++ {
		r := newRand(seed, 200+uint64(w))
		live := make(map[uint64]struct{}, 2*wcBacklog)
		var fifo []uint64
		fresh := func(slot uint64) uint64 {
			for {
				k := churnKey(r, slot, w)
				if _, dup := live[k]; !dup {
					live[k] = struct{}{}
					fifo = append(fifo, k)
					return k
				}
			}
		}
		ops := make([]op, 0, n+(2+wcRenews)*segments)
		var splitKey uint64
		for i := -wcPreRoll; i < n; i++ {
			if i == 0 {
				in.backlog[w] = slices.Clone(fifo)
				ops = ops[:0]
				in.batches[w] = in.batches[w][:0]
			}
			hot := uint64((i+wcPreRoll)/wcHotPeriod%windows) * wcHotSlots
			if i >= 0 && w == 0 && i%seg == seg/4 {
				splitKey = permanentKey(hot)
				ops = append(ops, op{kind: opSplit, key: splitKey})
			}
			if i >= 0 && w == 0 && i%seg == 3*seg/4 {
				ops = append(ops, op{kind: opMerge, key: splitKey})
			}
			if i >= 0 && w == 1 && i%(seg/wcRenews) == 0 {
				ops = append(ops, op{kind: opRenew})
			}
			k := kinds[pick(r, weights, total4)]
			// Keep the outstanding set within a few runs of wcBacklog.
			if (k == opStore || k == opBatch) && len(fifo) > wcBacklog+batchLen*4 {
				k = opDelete
			} else if k == opDelete && len(fifo) < wcBacklog-batchLen*4 {
				k = opStore
			}
			slotIn := func() uint64 { return hot + r.Uint64N(wcHotSlots) }
			o := op{kind: k}
			switch k {
			case opStore:
				o.key = fresh(slotIn())
			case opBatch:
				o.aux = uint64(len(in.batches[w]))
				run := make([]uint64, batchLen)
				for j := range run {
					run[j] = fresh(slotIn())
				}
				slices.Sort(run)
				in.batches[w] = append(in.batches[w], run...)
			case opDelete:
				o.key = fifo[0]
				fifo = fifo[1:]
				delete(live, o.key)
			case opLoad:
				o.key = permanentKey(slotIn())
			case opPred:
				o.key = permanentKey(hot) + r.Uint64N(wcHotSlots<<wcSlotShift)
				o.aux = o.key >> wcSlotShift << wcSlotShift
			}
			ops = append(ops, o)
		}
		in.ops[w] = ops
		in.final[w] = len(fifo)
	}
	return in
}

// wcPrefill returns every key write-churn starts with, sorted: the
// permanent keys and both workers' backlogs.
func wcPrefill(in *wcInput) []uint64 {
	keys := make([]uint64, 0, wcPermanent+workers*wcBacklog)
	for i := uint64(0); i < wcPermanent; i++ {
		keys = append(keys, permanentKey(i))
	}
	for _, b := range in.backlog {
		keys = append(keys, b...)
	}
	slices.Sort(keys)
	return keys
}

// --- wire-serve ---

const (
	wsKeyBits  = 18 // 2^18 keys
	wsZipfS    = 1.01
	wsChurnMod = 8 // every 8th rank is a churn key owned by one connection
)

type wsInput struct {
	keys   []uint64 // by rank
	sorted []uint64 // all keys ascending (prefill order)
	stable []uint64 // permanent keys ascending (never deleted)
	ops    [workers][]op
	warm   [workers][]op // warm-up traffic, cycled until the partition is quiet
}

// wsClass returns a wire key's class from its low two bits: 0 for a
// permanent key, 1+c for a churn key owned by connection c.
func wsClass(key uint64) int { return int(key & 3) }

func rankClass(r uint64) uint64 {
	if r%wsChurnMod == wsChurnMod-1 {
		return 1 + (r/wsChurnMod)%2
	}
	return 0
}

// churnIndex maps a churn rank to its owner's presence-bitmap index.
func churnIndex(r uint64) uint64 { return r / (2 * wsChurnMod) }

// genWireServe scatters 2^18 ranks over the 64-bit key space (so the
// namespace's two starting shards see even traffic and the balancer
// has nothing to split) and builds each connection's request stream:
// 60% GET, 25% SET, 5% DEL, 8% SCAN and 2% SNAPSHOT-SCAN, keys drawn
// from one fixed Zipf(1.01) rank distribution. One rank in eight is a
// churn key owned by one connection: only its owner SETs or DELs it, so
// the owner knows its state exactly. Every other key is permanent.
func genWireServe(seed uint64, total int) *wsInput {
	in := &wsInput{keys: make([]uint64, 1<<wsKeyBits)}
	for salt := seed; ; salt++ {
		for r := range in.keys {
			in.keys[r] = mix64(uint64(r)^mix64(salt))&^3 | rankClass(uint64(r))
		}
		in.sorted = slices.Clone(in.keys)
		slices.Sort(in.sorted)
		if len(slices.Compact(slices.Clone(in.sorted))) == len(in.sorted) {
			break
		}
	}
	for _, k := range in.sorted {
		if wsClass(k) == 0 {
			in.stable = append(in.stable, k)
		}
	}
	n := perWorker(total, pipeline)
	for c := 0; c < workers; c++ {
		in.ops[c] = in.wireStream(newRand(seed, 300+uint64(c)), c, n)
		in.warm[c] = in.wireStream(newRand(seed, 400+uint64(c)), c, 2048*pipeline)
	}
	return in
}

func (in *wsInput) wireStream(r *rand.Rand, c int, n int) []op {
	zipf := rand.NewZipf(r, wsZipfS, 1, uint64(len(in.keys)-1))
	weights := []int{60, 25, 5, 8, 2}
	kinds := []opKind{opGet, opSet, opDel, opScan, opSnapScan}
	ops := make([]op, n)
	for i := range ops {
		k := kinds[pick(r, weights, 100)]
		rank := zipf.Uint64()
		switch k {
		case opSet:
			if cl := rankClass(rank); cl != 0 && cl != uint64(1+c) {
				rank ^= wsChurnMod // the other owner's key: use the paired own key
			}
		case opDel:
			rank = rank&^(2*wsChurnMod-1) | uint64(c)*wsChurnMod | (wsChurnMod - 1)
		}
		o := op{kind: k, key: in.keys[rank], aux: rank}
		if k == opScan || k == opSnapScan {
			o.aux = uint64(sort.Search(len(in.stable), func(i int) bool { return in.stable[i] >= o.key }))
		}
		ops[i] = o
	}
	return ops
}
