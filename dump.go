package skiptrie

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"skiptrie/internal/dump"
	"skiptrie/internal/shard"
)

// This file implements persistence: checksummed dump streams written
// off one pinned snapshot (so a dump is a strictly consistent view no
// matter how long it takes), restores that refuse torn tails, and the
// incremental form — a BackupCursor that retains the last dumped
// snapshot and writes only the changes since. The framing (header,
// length-prefixed CRC-32C blocks, trailer) lives in internal/dump;
// this file decides what goes inside the blocks:
//
//	KV record:   key u64 LE | valueLen u32 LE | value bytes
//	set record:  key u64 LE
//	diff record: key u64 LE | kind u8 (1 put, 2 delete) | put only: valueLen u32 LE | value bytes
//
// Records are in ascending key order (per part and across parts), cut
// into blocks of about 256 KiB. Values are encoded by a caller-chosen
// ValueCodec.

// Errors reported by the persistence surface, beyond ErrTornDump.
var (
	// ErrRestoreMismatch reports a stream whose kind or universe width
	// does not fit the target structure.
	ErrRestoreMismatch = errors.New("skiptrie: dump stream does not match the target structure")
	// ErrRestoreNonEmpty reports a Restore into a structure that
	// already holds keys (use ApplyDiff for incremental application).
	ErrRestoreNonEmpty = errors.New("skiptrie: restore target is not empty")
	// ErrCodec wraps value encode/decode failures.
	ErrCodec = errors.New("skiptrie: value codec failed")
)

// ErrTornDump reports a dump stream that ends or corrupts mid-way: a
// crash cut the writer short, or bytes rotted in storage. Restore and
// ApplyDiff apply only verified blocks, so a torn tail never applies a
// corrupt record — the error reports that the stream's end is missing.
var ErrTornDump = dump.ErrTorn

// ValueCodec encodes map values into dump streams and back. Encoders
// append to dst and return the extended slice (append-style, so block
// building does not allocate per value); decoders must not retain src.
type ValueCodec[V any] interface {
	AppendValue(dst []byte, v V) ([]byte, error)
	DecodeValue(src []byte) (V, error)
}

type uint64Codec struct{}

func (uint64Codec) AppendValue(dst []byte, v uint64) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(dst, v), nil
}
func (uint64Codec) DecodeValue(src []byte) (uint64, error) {
	if len(src) != 8 {
		return 0, fmt.Errorf("%w: uint64 value of %d bytes", ErrCodec, len(src))
	}
	return binary.LittleEndian.Uint64(src), nil
}

// Uint64Codec encodes uint64 values as 8 little-endian bytes.
func Uint64Codec() ValueCodec[uint64] { return uint64Codec{} }

type stringCodec struct{}

func (stringCodec) AppendValue(dst []byte, v string) ([]byte, error) { return append(dst, v...), nil }
func (stringCodec) DecodeValue(src []byte) (string, error)           { return string(src), nil }

// StringCodec encodes string values as their raw bytes.
func StringCodec() ValueCodec[string] { return stringCodec{} }

type bytesCodec struct{}

func (bytesCodec) AppendValue(dst []byte, v []byte) ([]byte, error) { return append(dst, v...), nil }
func (bytesCodec) DecodeValue(src []byte) ([]byte, error) {
	out := make([]byte, len(src))
	copy(out, src)
	return out, nil
}

// BytesCodec encodes []byte values as their raw bytes (decoded values
// are copies, never aliases of the read buffer).
func BytesCodec() ValueCodec[[]byte] { return bytesCodec{} }

type jsonCodec[V any] struct{}

func (jsonCodec[V]) AppendValue(dst []byte, v V) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodec, err)
	}
	return append(dst, b...), nil
}
func (jsonCodec[V]) DecodeValue(src []byte) (V, error) {
	var v V
	if err := json.Unmarshal(src, &v); err != nil {
		return v, fmt.Errorf("%w: %v", ErrCodec, err)
	}
	return v, nil
}

// JSONCodec encodes values of any JSON-marshalable type. The generic
// fallback: use a purpose-built codec where dump size or speed matter.
func JSONCodec[V any]() ValueCodec[V] { return jsonCodec[V]{} }

// blockTarget is the payload size a dump block is cut at.
const blockTarget = 256 << 10

// encodedPart is one partition's finished blocks: payloads plus the
// record count of each, handed from an encoder worker to the writer.
type encodedPart struct {
	blocks  [][]byte
	counts  []int
	err     error
	entries uint64
}

// dumpParts streams every part of src through enc into framed blocks
// on w: parts are encoded concurrently (bounded by GOMAXPROCS), the
// stream is written in part order, so record order equals key order.
func dumpParts[V any](src *shard.Snap[V], w io.Writer, kind dump.Kind, h *TraceHooks,
	enc func(dst []byte, key uint64, val V) ([]byte, error)) (uint64, error) {
	parts := src.NumShards()
	ready := make([]chan encodedPart, parts)
	for i := range ready {
		ready[i] = make(chan encodedPart, 1)
	}
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := 0; i < parts; i++ {
		go func(i int) {
			sem <- struct{}{}
			defer func() { <-sem }()
			var out encodedPart
			buf := make([]byte, 0, blockTarget+4096)
			n := 0
			it := src.ShardIter(i, nil)
			for ok := it.First(); ok; ok = it.Next() {
				var err error
				buf, err = enc(buf, it.Key(), it.Value())
				if err != nil {
					out.err = err
					break
				}
				n++
				if len(buf) >= blockTarget {
					out.blocks = append(out.blocks, buf)
					out.counts = append(out.counts, n)
					out.entries += uint64(n)
					buf = make([]byte, 0, blockTarget+4096)
					n = 0
				}
			}
			if out.err == nil && n > 0 {
				out.blocks = append(out.blocks, buf)
				out.counts = append(out.counts, n)
				out.entries += uint64(n)
			}
			ready[i] <- out
		}(i)
	}

	dw, err := dump.NewWriter(w, kind, src.Width())
	if err != nil {
		return 0, err
	}
	var entries uint64
	for i := 0; i < parts; i++ {
		p := <-ready[i]
		if err == nil {
			err = p.err
		}
		if err != nil {
			continue // keep draining so workers don't leak
		}
		for j, b := range p.blocks {
			if err = dw.Block(b, p.counts[j]); err != nil {
				break
			}
		}
		entries += p.entries
		if err == nil {
			h.emitDump(false, i, parts, p.entries)
		}
	}
	if err != nil {
		return 0, err
	}
	return entries, dw.Close()
}

// appendKV appends one key/value record using codec.
func appendKV[V any](codec ValueCodec[V], dst []byte, key uint64, val V) ([]byte, error) {
	return appendValue(codec, binary.LittleEndian.AppendUint64(dst, key), val)
}

// appendValue appends val, encoded by codec, behind its uint32 length:
// the value half of a KV record and of a diff put.
func appendValue[V any](codec ValueCodec[V], dst []byte, val V) ([]byte, error) {
	mark := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	out, err := codec.AppendValue(dst, val)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(out[mark:], uint32(len(out)-mark-4))
	return out, nil
}

// cutValue decodes the length-prefixed value at the front of p (written
// by appendValue) and returns the rest of p; rec names the record kind
// in errors.
func cutValue[V any](codec ValueCodec[V], p []byte, rec string) (V, []byte, error) {
	var zero V
	if len(p) < 4 {
		return zero, nil, fmt.Errorf("%w: truncated %s in block", ErrTornDump, rec)
	}
	n := int(binary.LittleEndian.Uint32(p))
	if len(p) < 4+n {
		return zero, nil, fmt.Errorf("%w: %s value overruns block", ErrTornDump, rec)
	}
	v, err := codec.DecodeValue(p[4 : 4+n])
	return v, p[4+n:], err
}

// Dump writes the snapshot's entire pinned view to w as a checksummed
// stream, values encoded by codec, and returns the number of entries
// written. The view is exactly the pin point's — a dump running for
// minutes under heavy writes is still one consistent cut. On a Sharded
// snapshot the shards are encoded by parallel workers and written in
// key order, so dump cost scales with cores. The stream is readable by
// Restore on an empty Map or Sharded of the same or wider universe.
func (sn *Snapshot[V]) Dump(w io.Writer, codec ValueCodec[V]) (uint64, error) {
	n, err := dumpParts(sn.sn, w, dump.KindKV, sn.h, func(dst []byte, key uint64, val V) ([]byte, error) {
		return appendKV(codec, dst, key, val)
	})
	if err == nil {
		sn.m.recordDump(n)
	}
	return n, err
}

// Dump writes the set snapshot's pinned membership to w as a
// checksummed key-only stream readable by SkipTrie.Restore.
func (sn *SetSnapshot) Dump(w io.Writer) (uint64, error) {
	n, err := dumpParts(sn.sn.sn, w, dump.KindSet, sn.sn.h, func(dst []byte, key uint64, _ struct{}) ([]byte, error) {
		return binary.LittleEndian.AppendUint64(dst, key), nil
	})
	if err == nil {
		sn.sn.m.recordDump(n)
	}
	return n, err
}

// Dump takes a snapshot, writes it, and closes it: the one-call form
// of Snapshot().Dump for callers that do not need the snapshot for
// anything else.
func (e *engine[V]) Dump(w io.Writer, codec ValueCodec[V]) (uint64, error) {
	sn := e.Snapshot()
	defer sn.Close()
	return sn.Dump(w, codec)
}

// Dump takes a set snapshot, writes it, and closes it.
func (s *SkipTrie) Dump(w io.Writer) (uint64, error) {
	sn := s.Snapshot()
	defer sn.Close()
	return sn.Dump(w)
}

// openRestore validates a stream header against the target's kind and
// width. A narrower stream restores into a wider structure; the
// reverse is rejected, since its keys might not fit the universe.
func openRestore(r io.Reader, kind dump.Kind, width uint8) (*dump.Reader, error) {
	dr, err := dump.NewReader(r)
	if err != nil {
		return nil, err
	}
	if dr.Kind() != kind {
		return nil, fmt.Errorf("%w: stream kind %d, want %d", ErrRestoreMismatch, dr.Kind(), kind)
	}
	if dr.Width() > width {
		return nil, fmt.Errorf("%w: stream width %d exceeds target width %d", ErrRestoreMismatch, dr.Width(), width)
	}
	return dr, nil
}

// drainBlocks opens a stream of the given kind and hands each verified
// block to apply, which decodes and applies its records and returns how
// many it applied. At EOF the trailer's count, in units of noun, must
// match the records applied.
func drainBlocks(r io.Reader, kind dump.Kind, width uint8, noun string,
	apply func(p []byte) (uint64, error)) (uint64, error) {
	dr, err := openRestore(r, kind, width)
	if err != nil {
		return 0, err
	}
	var total uint64
	for {
		p, err := dr.Next()
		if err == io.EOF {
			if total != dr.Entries() {
				return total, fmt.Errorf("%w: trailer counts %d %s, stream held %d", ErrTornDump, dr.Entries(), noun, total)
			}
			return total, nil
		}
		if err != nil {
			return total, err
		}
		n, err := apply(p)
		total += n
		if err != nil {
			return total, err
		}
	}
}

// restoreKV drains a KindKV stream into store, one batch per block; a
// block with a bad record applies none of it.
func restoreKV[V any](r io.Reader, codec ValueCodec[V], width uint8, h *TraceHooks,
	store func(keys []uint64, vals []V)) (uint64, error) {
	var keys []uint64
	var vals []V
	block := 0
	return drainBlocks(r, dump.KindKV, width, "entries", func(p []byte) (uint64, error) {
		keys, vals = keys[:0], vals[:0]
		for len(p) > 0 {
			if len(p) < 8 {
				return 0, fmt.Errorf("%w: truncated record in block", ErrTornDump)
			}
			key := binary.LittleEndian.Uint64(p)
			v, rest, err := cutValue(codec, p[8:], "record")
			if err != nil {
				return 0, err
			}
			keys = append(keys, key)
			vals = append(vals, v)
			p = rest
		}
		store(keys, vals)
		h.emitDump(true, block, 0, uint64(len(keys)))
		block++
		return uint64(len(keys)), nil
	})
}

// Restore loads a KindKV dump stream into the empty map and returns
// the number of entries applied. The target's universe must be at
// least as wide as the stream's; Map dumps restore into Sharded and
// vice versa. A torn or corrupt stream applies only its verified
// prefix and returns an error wrapping ErrTornDump — no corrupt record
// is ever applied; discard the partial structure or diff it against a
// known-good source.
func (e *engine[V]) Restore(r io.Reader, codec ValueCodec[V]) (uint64, error) {
	if e.Len() != 0 {
		return 0, ErrRestoreNonEmpty
	}
	n, err := restoreKV(r, codec, e.t.Width(), e.h, e.StoreBatch)
	if err == nil {
		e.m.recordRestore(n)
	}
	return n, err
}

// Restore loads a KindSet dump stream into the empty set; see
// Map.Restore for the torn-tail contract.
func (s *SkipTrie) Restore(r io.Reader) (uint64, error) {
	if s.Len() != 0 {
		return 0, ErrRestoreNonEmpty
	}
	var keys []uint64
	block := 0
	n, err := drainBlocks(r, dump.KindSet, s.e.t.Width(), "entries", func(p []byte) (uint64, error) {
		if len(p)%8 != 0 {
			return 0, fmt.Errorf("%w: truncated record in block", ErrTornDump)
		}
		keys = keys[:0]
		for ; len(p) > 0; p = p[8:] {
			keys = append(keys, binary.LittleEndian.Uint64(p))
		}
		s.AddBatch(keys)
		s.e.h.emitDump(true, block, 0, uint64(len(keys)))
		block++
		return uint64(len(keys)), nil
	})
	if err == nil {
		s.e.m.recordRestore(n)
	}
	return n, err
}

// Diff record kinds on the wire.
const (
	diffRecPut    = 1
	diffRecDelete = 2
)

// BackupCursor is an incremental backup position on a Map or Sharded:
// it retains the snapshot of the last dump so the next DumpDiff writes
// only the changes since — O(changed keys), not O(size). The retention
// cost is the same as holding any snapshot open: churn during the
// inter-backup window stays resident until the cursor advances.
//
// The intended cycle is one DumpFull, then DumpDiff per backup
// interval, applying the diffs in order onto the restored full dump
// with ApplyDiff. Close releases the retained snapshot; the Snapshot
// leak guard covers a cursor that is collected without Close.
type BackupCursor[V any] struct {
	take   func() *Snapshot[V]
	codec  ValueCodec[V]
	m      *Metrics
	h      *TraceHooks
	mu     sync.Mutex
	base   *Snapshot[V]
	closed bool
}

// NewBackupCursor creates an incremental backup cursor positioned at
// the current state: the first DumpDiff reports changes since this
// call (a DumpFull resets the position to its own cut).
func (e *engine[V]) NewBackupCursor(codec ValueCodec[V]) *BackupCursor[V] {
	return &BackupCursor[V]{take: e.Snapshot, codec: codec, m: e.m, h: e.h, base: e.Snapshot()}
}

// DumpFull writes a full KindKV dump of the current state to w and
// repositions the cursor at that cut.
func (c *BackupCursor[V]) DumpFull(w io.Writer) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrSnapshotClosed
	}
	next := c.take()
	n, err := next.Dump(w, c.codec)
	if err != nil {
		next.Close()
		return 0, err
	}
	c.base.Close()
	c.base = next
	return n, nil
}

// DumpDiff writes the changes since the cursor's position to w as a
// KindKVDiff stream — puts carry the new value, deletes just the key,
// ascending key order, the same at-least-once contract as
// Snapshot.Diff — then advances the cursor to the new cut. Returns the
// number of events written. Applying the stream with ApplyDiff onto a
// structure holding the previous cut reproduces the new cut.
func (c *BackupCursor[V]) DumpDiff(w io.Writer) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrSnapshotClosed
	}
	next := c.take()
	dw, err := dump.NewWriter(w, dump.KindKVDiff, c.base.sn.Width())
	if err != nil {
		next.Close()
		return 0, err
	}
	buf := make([]byte, 0, blockTarget+4096)
	n, entries := 0, uint64(0)
	var encErr error
	flush := func() error {
		if n == 0 {
			return nil
		}
		if err := dw.Block(buf, n); err != nil {
			return err
		}
		entries += uint64(n)
		buf, n = buf[:0], 0
		return nil
	}
	err = c.base.Diff(next, func(e DiffEvent[V]) bool {
		buf = binary.LittleEndian.AppendUint64(buf, e.Key)
		if e.Kind == DiffPut {
			out, err := appendValue(c.codec, append(buf, diffRecPut), e.Val)
			if err != nil {
				encErr = err
				return false
			}
			buf = out
		} else {
			buf = append(buf, diffRecDelete)
		}
		n++
		if len(buf) >= blockTarget {
			if err := flush(); err != nil {
				encErr = err
				return false
			}
		}
		return true
	})
	if err == nil {
		err = encErr
	}
	if err == nil {
		err = flush()
	}
	if err == nil {
		err = dw.Close()
	}
	if err != nil {
		next.Close()
		return 0, err
	}
	c.base.Close()
	c.base = next
	c.m.recordDump(entries)
	c.h.emitDump(false, 0, 1, entries)
	return entries, nil
}

// Close releases the cursor's retained snapshot and reports whether
// this call closed it.
func (c *BackupCursor[V]) Close() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.closed = true
	c.base.Close()
	c.base = nil
	return true
}

// applyDiffStream drains a KindKVDiff stream into put/del, applying
// each event as it is decoded.
func applyDiffStream[V any](r io.Reader, codec ValueCodec[V], width uint8,
	put func(key uint64, val V), del func(key uint64)) (uint64, error) {
	return drainBlocks(r, dump.KindKVDiff, width, "events", func(p []byte) (uint64, error) {
		var n uint64
		for len(p) > 0 {
			if len(p) < 9 {
				return n, fmt.Errorf("%w: truncated event in block", ErrTornDump)
			}
			key := binary.LittleEndian.Uint64(p)
			kind := p[8]
			p = p[9:]
			switch kind {
			case diffRecDelete:
				del(key)
			case diffRecPut:
				v, rest, err := cutValue(codec, p, "event")
				if err != nil {
					return n, err
				}
				put(key, v)
				p = rest
			default:
				return n, fmt.Errorf("%w: unknown event kind %d", ErrTornDump, kind)
			}
			n++
		}
		return n, nil
	})
}

// ApplyDiff applies a KindKVDiff stream (written by DumpDiff) to the
// map: puts store, deletes remove. The target need not be empty —
// apply diffs in cut order onto the restored full dump. A torn stream
// applies only its verified prefix and returns an error wrapping
// ErrTornDump; because delivery is at-least-once, re-applying the
// regenerated stream is safe.
func (e *engine[V]) ApplyDiff(r io.Reader, codec ValueCodec[V]) (uint64, error) {
	n, err := applyDiffStream(r, codec, e.t.Width(), e.Store,
		func(k uint64) { e.Delete(k) })
	if err == nil {
		e.m.recordRestore(n)
	}
	return n, err
}
