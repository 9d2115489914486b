package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// roundTripReq encodes r and decodes the framed body back.
func roundTripReq(t *testing.T, r *Request) Request {
	t.Helper()
	buf, err := AppendRequest(nil, r)
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	body, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	var got Request
	if err := DecodeRequest(body, &got); err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	return got
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Seq: 1, Op: OpGet, NS: []byte("default"), Key: 42},
		{Seq: 2, Op: OpSet, NS: []byte("t"), Key: 0, Val: []byte("v")},
		{Seq: 3, Op: OpSet, NS: nil, Key: ^uint64(0), Val: nil},
		{Seq: 4, Op: OpDel, NS: []byte("x"), Key: 7},
		{Seq: 5, Op: OpScan, NS: []byte("default"), Key: 100, Limit: 50},
		{Seq: 6, Op: OpSnapScan, NS: []byte("default"), Key: 0, Limit: MaxScanLimit},
		{Seq: 7, Op: OpStats, NS: []byte("ns")},
	}
	for _, r := range cases {
		got := roundTripReq(t, &r)
		if got.Seq != r.Seq || got.Op != r.Op || !bytes.Equal(got.NS, r.NS) ||
			got.Key != r.Key || !bytes.Equal(got.Val, r.Val) || got.Limit != r.Limit {
			t.Errorf("round trip %+v -> %+v", r, got)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{Seq: 1, Op: OpGet, Status: StatusOK, Val: []byte("value")},
		{Seq: 2, Op: OpGet, Status: StatusNotFound},
		{Seq: 3, Op: OpSet, Status: StatusOK},
		{Seq: 4, Op: OpDel, Status: StatusNotFound},
		{Seq: 5, Op: OpScan, Status: StatusOK, Entries: []Entry{
			{Key: 1, Val: []byte("a")}, {Key: 2, Val: nil}, {Key: ^uint64(0), Val: []byte("z")},
		}},
		{Seq: 6, Op: OpSnapScan, Status: StatusOK, Entries: []Entry{}},
		{Seq: 7, Op: OpStats, Status: StatusOK, Val: []byte("# HELP x\n")},
		{Seq: 8, Op: OpSet, Status: StatusBusy, Val: []byte("queue full")},
		{Seq: 9, Op: OpGet, Status: StatusShutdown, Val: []byte("draining")},
		{Seq: 10, Op: OpScan, Status: StatusErr, Val: []byte("bad payload")},
	}
	for _, r := range cases {
		buf, err := AppendResponse(nil, &r)
		if err != nil {
			t.Fatalf("AppendResponse(%+v): %v", r, err)
		}
		body, err := ReadFrame(bytes.NewReader(buf), nil)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		var got Response
		if err := DecodeResponse(body, &got); err != nil {
			t.Fatalf("DecodeResponse(%+v): %v", r, err)
		}
		if got.Seq != r.Seq || got.Op != r.Op || got.Status != r.Status || !bytes.Equal(got.Val, r.Val) {
			t.Errorf("round trip %+v -> %+v", r, got)
		}
		if len(got.Entries) != len(r.Entries) {
			t.Fatalf("entries %d != %d", len(got.Entries), len(r.Entries))
		}
		for i := range r.Entries {
			if got.Entries[i].Key != r.Entries[i].Key || !bytes.Equal(got.Entries[i].Val, r.Entries[i].Val) {
				t.Errorf("entry %d: %+v != %+v", i, got.Entries[i], r.Entries[i])
			}
		}
	}
}

func TestEncodeLimits(t *testing.T) {
	if _, err := AppendRequest(nil, &Request{Op: OpSet, NS: bytes.Repeat([]byte("n"), 256)}); !errors.Is(err, ErrLimit) {
		t.Errorf("oversized namespace: %v", err)
	}
	if _, err := AppendRequest(nil, &Request{Op: OpSet, Val: make([]byte, MaxValue+1)}); !errors.Is(err, ErrLimit) {
		t.Errorf("oversized value: %v", err)
	}
	if _, err := AppendRequest(nil, &Request{Op: OpScan, Limit: MaxScanLimit + 1}); !errors.Is(err, ErrLimit) {
		t.Errorf("oversized limit: %v", err)
	}
	if _, err := AppendRequest(nil, &Request{Op: 0}); !errors.Is(err, ErrUnknownOp) {
		t.Errorf("zero op: %v", err)
	}
	if _, err := AppendRequest(nil, &Request{Op: opMax + 1}); !errors.Is(err, ErrUnknownOp) {
		t.Errorf("bad op: %v", err)
	}
	if _, err := AppendResponse(nil, &Response{Op: OpGet, Status: statusMax + 1}); !errors.Is(err, ErrUnknownStatus) {
		t.Errorf("bad status: %v", err)
	}
}

func TestDecodeHostile(t *testing.T) {
	// Truncations of a valid frame body must all fail cleanly.
	buf, err := AppendRequest(nil, &Request{Seq: 9, Op: OpSet, NS: []byte("ns"), Key: 1, Val: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	body := buf[4:]
	for i := 0; i < len(body); i++ {
		var r Request
		if err := DecodeRequest(body[:i], &r); err == nil {
			t.Errorf("truncation at %d decoded", i)
		}
	}
	// Trailing garbage must be rejected.
	var r Request
	if err := DecodeRequest(append(append([]byte{}, body...), 0xFF), &r); !errors.Is(err, ErrTrailing) {
		t.Errorf("trailing bytes: %v", err)
	}
	// A scan-entry count that exceeds the remaining body must fail
	// before allocating.
	hostile, err := AppendResponse(nil, &Response{Seq: 1, Op: OpScan, Status: StatusOK})
	if err != nil {
		t.Fatal(err)
	}
	hb := append([]byte{}, hostile[4:]...)
	// Patch the count field (last 4 bytes) to a huge value.
	hb[len(hb)-1], hb[len(hb)-2] = 0xFF, 0xFF
	var resp Response
	if err := DecodeResponse(hb, &resp); err == nil {
		t.Error("hostile scan count decoded")
	}
}

func TestReadFrameLimits(t *testing.T) {
	// Oversized length prefix.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(hdr), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized frame: %v", err)
	}
	// Clean EOF at a frame boundary stays io.EOF; mid-frame EOF is
	// ErrUnexpectedEOF.
	if _, err := ReadFrame(bytes.NewReader(nil), nil); err != io.EOF {
		t.Errorf("empty stream: %v", err)
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 8, 1, 2}), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("torn frame: %v", err)
	}
	// Buffer reuse: a larger frame after a smaller one regrows.
	var stream []byte
	a, _ := AppendRequest(nil, &Request{Op: OpGet, Key: 1})
	b, _ := AppendRequest(nil, &Request{Op: OpSet, Key: 2, Val: bytes.Repeat([]byte("x"), 1024)})
	stream = append(append(stream, a...), b...)
	rd := bytes.NewReader(stream)
	buf, err := ReadFrame(rd, nil)
	if err != nil {
		t.Fatal(err)
	}
	if buf, err = ReadFrame(rd, buf); err != nil {
		t.Fatal(err)
	}
	var req Request
	if err := DecodeRequest(buf, &req); err != nil || req.Key != 2 || len(req.Val) != 1024 {
		t.Fatalf("reused-buffer decode: %v %+v", err, req)
	}
}

// TestReadFrameReuseNoAllocs pins the server loop's and Client.Recv's
// steady state: with the previous body's capacity passed back, reading
// a frame allocates nothing, length prefix included.
func TestReadFrameReuseNoAllocs(t *testing.T) {
	frame, err := AppendRequest(nil, &Request{Seq: 1, Op: OpSet, NS: []byte("ns"), Key: 7, Val: []byte("value")})
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(frame)
	buf, err := ReadFrame(rd, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(frame)
		body, err := ReadFrame(rd, buf[:cap(buf)])
		if err != nil || len(body) != len(frame)-4 {
			t.Fatalf("ReadFrame: %d bytes, %v", len(body), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadFrame with a reused buffer: %v allocs per call, want 0", allocs)
	}
}
