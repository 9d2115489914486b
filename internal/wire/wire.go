// Package wire implements the skiptried network protocol: a RESP-like
// length-prefixed binary framing with explicit opcodes, designed for
// pipelining. Every frame is a 4-byte big-endian body length followed
// by the body; bodies are flat field sequences (no nesting, no CRC —
// TCP already checksums, and every length is range-checked on decode
// so a torn or hostile frame yields an error, never a panic or an
// unbounded allocation).
//
// # Frame grammar
//
//	frame    = u32(len(body)) body
//	request  = seq:u32 op:u8 nsLen:u8 ns:bytes payload
//	response = seq:u32 op:u8 status:u8 payload
//
// Request payloads by opcode:
//
//	GET, DEL   key:u64
//	SET        key:u64 vlen:u32 val:bytes
//	SCAN,      from:u64 limit:u32
//	SNAPSCAN
//	STATS      (empty)
//
// Response payloads by opcode (StatusOK):
//
//	GET        vlen:u32 val:bytes
//	SET, DEL   (empty)
//	SCAN,      n:u32 n x (key:u64 vlen:u32 val:bytes)
//	SNAPSCAN
//	STATS      tlen:u32 text:bytes
//
// Non-OK statuses (NotFound excepted, which is empty) carry
// mlen:u32 msg:bytes — a human-readable error.
//
// Requests carry a client-chosen sequence number echoed verbatim in
// the response. skiptried answers every request on one connection in
// submission order, rejections (Shutdown during drain, Err on a
// malformed frame) included. The protocol itself does not promise
// arrival order, so pipelining clients still match responses by seq.
//
// Decoded requests and responses alias the frame buffer (zero-copy):
// namespace, value and entry slices are only valid until the buffer is
// reused. Callers that retain them must copy.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Op is a protocol opcode.
type Op uint8

// Protocol opcodes. The zero value is invalid so an all-zero frame
// cannot masquerade as a request.
const (
	OpGet      Op = 1 // point read
	OpSet      Op = 2 // point write (upsert)
	OpDel      Op = 3 // point delete
	OpScan     Op = 4 // ascending live scan: weakly consistent across shards
	OpSnapScan Op = 5 // ascending snapshot scan: strict point-in-time
	OpStats    Op = 6 // Prometheus text exposition of the namespace collector
	opMax         = OpStats
)

// String names the opcode.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpSet:
		return "SET"
	case OpDel:
		return "DEL"
	case OpScan:
		return "SCAN"
	case OpSnapScan:
		return "SNAPSCAN"
	case OpStats:
		return "STATS"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Status is a response status code.
type Status uint8

// Response statuses.
const (
	StatusOK       Status = 0 // request applied; payload per opcode
	StatusNotFound Status = 1 // GET/DEL on an absent key; empty payload
	StatusBusy     Status = 2 // server over an explicit cap; retry (skiptried sends none)
	StatusShutdown Status = 3 // server draining; connection is closing
	StatusErr      Status = 4 // malformed or unsupported request
	statusMax             = StatusErr
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusBusy:
		return "BUSY"
	case StatusShutdown:
		return "SHUTDOWN"
	case StatusErr:
		return "ERR"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Protocol limits. Every decode validates against them, so a hostile
// length prefix cannot force an unbounded allocation.
const (
	// MaxFrame bounds a frame body. It must hold the largest scan
	// response (MaxScanLimit entries of MaxValue bytes would exceed it,
	// so servers additionally cap scan payload bytes).
	MaxFrame = 1 << 20
	// MaxValue bounds one value.
	MaxValue = 1 << 16
	// MaxNamespace bounds a namespace name.
	MaxNamespace = 255
	// MaxScanLimit bounds one scan's entry count.
	MaxScanLimit = 1 << 16
)

// Protocol errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrTruncated     = errors.New("wire: truncated frame")
	ErrTrailing      = errors.New("wire: trailing bytes after payload")
	ErrUnknownOp     = errors.New("wire: unknown opcode")
	ErrUnknownStatus = errors.New("wire: unknown status")
	ErrLimit         = errors.New("wire: field exceeds protocol limit")
)

// Request is one decoded request frame. Key doubles as the scan start
// ("from") for OpScan/OpSnapScan; Limit is scan-only.
type Request struct {
	Seq   uint32
	Op    Op
	NS    []byte
	Key   uint64
	Val   []byte // OpSet only
	Limit uint32 // OpScan/OpSnapScan only
}

// Entry is one scan result.
type Entry struct {
	Key uint64
	Val []byte
}

// Response is one decoded response frame. Val carries the GET value,
// the STATS text, or the non-OK error message; Entries carries scan
// results.
type Response struct {
	Seq     uint32
	Op      Op
	Status  Status
	Val     []byte
	Entries []Entry
}

// AppendRequest appends r as a complete frame (length prefix included)
// and returns the extended buffer. It validates the same limits decode
// enforces, so an encoded frame always round-trips.
func AppendRequest(dst []byte, r *Request) ([]byte, error) {
	if r.Op < OpGet || r.Op > opMax {
		return dst, ErrUnknownOp
	}
	if len(r.NS) > MaxNamespace {
		return dst, fmt.Errorf("%w: namespace %d bytes", ErrLimit, len(r.NS))
	}
	if len(r.Val) > MaxValue {
		return dst, fmt.Errorf("%w: value %d bytes", ErrLimit, len(r.Val))
	}
	if (r.Op == OpScan || r.Op == OpSnapScan) && r.Limit > MaxScanLimit {
		return dst, fmt.Errorf("%w: scan limit %d", ErrLimit, r.Limit)
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // frame length, patched below
	dst = binary.BigEndian.AppendUint32(dst, r.Seq)
	dst = append(dst, byte(r.Op), byte(len(r.NS)))
	dst = append(dst, r.NS...)
	switch r.Op {
	case OpGet, OpDel:
		dst = binary.BigEndian.AppendUint64(dst, r.Key)
	case OpSet:
		dst = binary.BigEndian.AppendUint64(dst, r.Key)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Val)))
		dst = append(dst, r.Val...)
	case OpScan, OpSnapScan:
		dst = binary.BigEndian.AppendUint64(dst, r.Key)
		dst = binary.BigEndian.AppendUint32(dst, r.Limit)
	case OpStats:
	}
	return patchFrame(dst, start)
}

// AppendResponse appends resp as a complete frame and returns the
// extended buffer.
func AppendResponse(dst []byte, resp *Response) ([]byte, error) {
	if resp.Op < OpGet || resp.Op > opMax {
		return dst, ErrUnknownOp
	}
	if resp.Status > statusMax {
		return dst, ErrUnknownStatus
	}
	if len(resp.Entries) > MaxScanLimit {
		return dst, fmt.Errorf("%w: %d scan entries", ErrLimit, len(resp.Entries))
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.BigEndian.AppendUint32(dst, resp.Seq)
	dst = append(dst, byte(resp.Op), byte(resp.Status))
	switch {
	case resp.Status == StatusNotFound:
	case resp.Status != StatusOK: // error statuses: message only
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(resp.Val)))
		dst = append(dst, resp.Val...)
	case resp.Op == OpGet, resp.Op == OpStats:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(resp.Val)))
		dst = append(dst, resp.Val...)
	case resp.Op == OpScan, resp.Op == OpSnapScan:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(resp.Entries)))
		for i := range resp.Entries {
			e := &resp.Entries[i]
			if len(e.Val) > MaxValue {
				return dst[:start], fmt.Errorf("%w: entry value %d bytes", ErrLimit, len(e.Val))
			}
			dst = binary.BigEndian.AppendUint64(dst, e.Key)
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(e.Val)))
			dst = append(dst, e.Val...)
		}
	case resp.Op == OpSet, resp.Op == OpDel:
	}
	return patchFrame(dst, start)
}

// patchFrame writes the frame's body length into the 4 bytes reserved
// at start and enforces MaxFrame.
func patchFrame(dst []byte, start int) ([]byte, error) {
	body := len(dst) - start - 4
	if body > MaxFrame {
		return dst[:start], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(body))
	return dst, nil
}

// ReadFrame reads one length-prefixed frame body from r into buf
// (grown as needed) and returns the body slice. The length prefix is
// read into buf too, so a caller that passes back the previous body's
// full capacity reads every frame that fits without allocating.
// io.EOF is returned untouched at a clean frame boundary; a partial
// frame yields io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// reader is a bounds-checked cursor over a frame body.
type reader struct {
	b []byte
	i int
}

func (r *reader) u8() (byte, error) {
	if r.i+1 > len(r.b) {
		return 0, ErrTruncated
	}
	v := r.b[r.i]
	r.i++
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.i+4 > len(r.b) {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint32(r.b[r.i:])
	r.i += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.i+8 > len(r.b) {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint64(r.b[r.i:])
	r.i += 8
	return v, nil
}

// bytes returns n bytes aliasing the frame buffer.
func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.i+n > len(r.b) {
		return nil, ErrTruncated
	}
	v := r.b[r.i : r.i+n : r.i+n]
	r.i += n
	return v, nil
}

func (r *reader) done() error {
	if r.i != len(r.b) {
		return ErrTrailing
	}
	return nil
}

// DecodeRequest decodes a frame body into req. Slice fields alias
// body.
func DecodeRequest(body []byte, req *Request) error {
	r := reader{b: body}
	var err error
	if req.Seq, err = r.u32(); err != nil {
		return err
	}
	op, err := r.u8()
	if err != nil {
		return err
	}
	req.Op = Op(op)
	if req.Op < OpGet || req.Op > opMax {
		return ErrUnknownOp
	}
	nsLen, err := r.u8()
	if err != nil {
		return err
	}
	if req.NS, err = r.bytes(int(nsLen)); err != nil {
		return err
	}
	req.Key, req.Val, req.Limit = 0, nil, 0
	switch req.Op {
	case OpGet, OpDel:
		if req.Key, err = r.u64(); err != nil {
			return err
		}
	case OpSet:
		if req.Key, err = r.u64(); err != nil {
			return err
		}
		vlen, err := r.u32()
		if err != nil {
			return err
		}
		if vlen > MaxValue {
			return fmt.Errorf("%w: value %d bytes", ErrLimit, vlen)
		}
		if req.Val, err = r.bytes(int(vlen)); err != nil {
			return err
		}
	case OpScan, OpSnapScan:
		if req.Key, err = r.u64(); err != nil {
			return err
		}
		if req.Limit, err = r.u32(); err != nil {
			return err
		}
		if req.Limit > MaxScanLimit {
			return fmt.Errorf("%w: scan limit %d", ErrLimit, req.Limit)
		}
	case OpStats:
	}
	return r.done()
}

// DecodeResponse decodes a frame body into resp. Slice fields alias
// body.
func DecodeResponse(body []byte, resp *Response) error {
	r := reader{b: body}
	var err error
	if resp.Seq, err = r.u32(); err != nil {
		return err
	}
	op, err := r.u8()
	if err != nil {
		return err
	}
	resp.Op = Op(op)
	if resp.Op < OpGet || resp.Op > opMax {
		return ErrUnknownOp
	}
	st, err := r.u8()
	if err != nil {
		return err
	}
	resp.Status = Status(st)
	if resp.Status > statusMax {
		return ErrUnknownStatus
	}
	resp.Val, resp.Entries = nil, nil
	switch {
	case resp.Status == StatusNotFound:
	case resp.Status != StatusOK:
		mlen, err := r.u32()
		if err != nil {
			return err
		}
		if resp.Val, err = r.bytes(int(mlen)); err != nil {
			return err
		}
	case resp.Op == OpGet, resp.Op == OpStats:
		vlen, err := r.u32()
		if err != nil {
			return err
		}
		if resp.Op == OpGet && vlen > MaxValue {
			return fmt.Errorf("%w: value %d bytes", ErrLimit, vlen)
		}
		if resp.Val, err = r.bytes(int(vlen)); err != nil {
			return err
		}
	case resp.Op == OpScan, resp.Op == OpSnapScan:
		n, err := r.u32()
		if err != nil {
			return err
		}
		if n > MaxScanLimit {
			return fmt.Errorf("%w: %d scan entries", ErrLimit, n)
		}
		// Each entry is at least 12 bytes, so the remaining body bounds
		// the entry count before anything is allocated.
		if int(n) > (len(body)-r.i)/12 {
			return ErrTruncated
		}
		resp.Entries = make([]Entry, n)
		for i := range resp.Entries {
			e := &resp.Entries[i]
			if e.Key, err = r.u64(); err != nil {
				return err
			}
			vlen, err := r.u32()
			if err != nil {
				return err
			}
			if vlen > MaxValue {
				return fmt.Errorf("%w: entry value %d bytes", ErrLimit, vlen)
			}
			if e.Val, err = r.bytes(int(vlen)); err != nil {
				return err
			}
		}
	case resp.Op == OpSet, resp.Op == OpDel:
	}
	return r.done()
}
