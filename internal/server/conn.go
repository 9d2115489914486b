package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"skiptrie/internal/wire"
)

// Per-connection constants.
const (
	// ioBufSize sizes each connection's read buffer and write buffer.
	ioBufSize = 64 << 10
	// batchMin is the shortest run of consecutive same-namespace SETs
	// applied with one StoreBatch; shorter runs take per-key Stores.
	batchMin = 8
	// batchMax caps a run, so a connection holds at most this many
	// decoded values before applying them.
	batchMax = 64
	// maxScanBytes caps one scan response's value payload, so a single
	// SCAN stays far below wire.MaxFrame.
	maxScanBytes = 256 << 10
)

var msgShutdown = []byte("server draining")

// conn is one client connection. Its only goroutine is serve.
type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer

	draining atomic.Bool

	// One-entry namespace cache: pipelined bursts overwhelmingly hit
	// one namespace, so the common case skips the server map lock.
	lastNSName []byte
	lastNS     *namespace

	// The pending run of SETs on runNS, in submission order. Values are
	// owned copies: the frame buffer is reused.
	runNS   *namespace
	runSeqs []uint32
	runKeys []uint64
	runVals [][]byte

	out     []byte       // one encoded response
	entries []wire.Entry // scan results
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv: s,
		nc:  nc,
		br:  bufio.NewReaderSize(nc, ioBufSize),
		bw:  bufio.NewWriterSize(nc, ioBufSize),
	}
}

// beginDrain switches the connection into drain mode: frames decoded
// from here on are rejected with StatusShutdown, and the deadline
// bounds how long the connection lingers for such late frames before
// the read (and any stuck write) errors out and serve returns.
func (c *conn) beginDrain(deadline time.Time) {
	c.draining.Store(true)
	c.nc.SetReadDeadline(deadline)
	c.nc.SetWriteDeadline(deadline)
}

// serve reads frames and executes each one in place, appending its
// response to the write buffer. It flushes only when no complete frame
// is left to read, so a pipelined burst costs about one read and one
// write syscall. It returns on EOF, a read or write error (the drain
// deadline included), or a malformed frame.
func (c *conn) serve() {
	defer c.srv.wg.Done()
	defer c.srv.dropConn(c)
	defer c.nc.Close()
	defer c.bw.Flush() // the ERR reply of a malformed frame
	var fbuf []byte
	var req wire.Request
	for {
		if !frameBuffered(c.br) {
			c.applyRun()
			if c.bw.Flush() != nil {
				return
			}
		}
		body, err := wire.ReadFrame(c.br, fbuf)
		if err != nil {
			if errors.Is(err, wire.ErrFrameTooLarge) {
				// Framing violation: the stream is unrecoverable.
				c.srv.stats.protoErrors.Add(1)
				c.send(&wire.Response{Op: wire.OpGet, Status: wire.StatusErr, Val: []byte(err.Error())})
			}
			return // or EOF, a dead peer, the drain deadline
		}
		fbuf = body[:cap(body)]
		// The drain decision is taken before the frame is counted, so a
		// frame counted before Drain began is never rejected as late.
		late := c.draining.Load()
		c.srv.stats.frames.Add(1)
		if err := wire.DecodeRequest(body, &req); err != nil {
			// Frame boundaries are intact but the payload is malformed;
			// reject and close (a hostile peer gets no more cycles).
			c.srv.stats.protoErrors.Add(1)
			op := req.Op
			if op < wire.OpGet || op > wire.OpStats {
				op = wire.OpGet
			}
			c.send(&wire.Response{Seq: req.Seq, Op: op, Status: wire.StatusErr, Val: []byte(err.Error())})
			return
		}
		c.handle(&req, late)
	}
}

// frameBuffered reports whether br holds a whole frame, so reading it
// will not wait on the network.
func frameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < 4 {
		return false
	}
	hdr, _ := br.Peek(4) // cannot fail: 4 bytes are buffered
	return int64(binary.BigEndian.Uint32(hdr)) <= int64(n-4)
}

// handle executes one decoded request, or rejects it. SETs join the
// pending run; every other request executes at once.
func (c *conn) handle(req *wire.Request, late bool) {
	if late {
		c.srv.stats.shutdownRejects.Add(1)
		c.send(&wire.Response{Seq: req.Seq, Op: req.Op, Status: wire.StatusShutdown, Val: msgShutdown})
		return
	}
	ns, err := c.lookupNS(req.NS)
	if err != nil {
		c.send(&wire.Response{Seq: req.Seq, Op: req.Op, Status: wire.StatusErr, Val: []byte(err.Error())})
		return
	}
	if req.Op == wire.OpSet {
		if ns != c.runNS {
			c.applyRun()
			c.runNS = ns
		}
		c.runSeqs = append(c.runSeqs, req.Seq)
		c.runKeys = append(c.runKeys, req.Key)
		c.runVals = append(c.runVals, bytes.Clone(req.Val))
		if len(c.runSeqs) == batchMax {
			c.applyRun()
		}
		return
	}
	c.applyRun() // program order: earlier SETs take effect first
	resp := wire.Response{Seq: req.Seq, Op: req.Op, Status: wire.StatusOK}
	switch req.Op {
	case wire.OpGet:
		v, ok := ns.s.Load(req.Key)
		if !ok {
			resp.Status = wire.StatusNotFound
			break
		}
		resp.Val = v
	case wire.OpDel:
		if !ns.s.Delete(req.Key) {
			resp.Status = wire.StatusNotFound
		}
	case wire.OpScan:
		it := ns.s.Iter()
		c.entries = scanInto(c.entries[:0], it.Seek(req.Key), it.Next, it.Key, it.Value, req.Limit)
		resp.Entries = c.entries
	case wire.OpSnapScan:
		sn := ns.s.Snapshot()
		it := sn.Iter()
		c.entries = scanInto(c.entries[:0], it.Seek(req.Key), it.Next, it.Key, it.Value, req.Limit)
		resp.Entries = c.entries
		sn.Close()
	case wire.OpStats:
		var buf bytes.Buffer
		if err := ns.m.WriteProm(&buf); err != nil {
			resp.Status = wire.StatusErr
			resp.Val = []byte(err.Error())
			break
		}
		c.srv.writeServerProm(&buf)
		resp.Val = buf.Bytes()
	}
	// Payloads alias stored values (immutable once stored) and the
	// scan scratch; both stay valid until write has encoded them.
	c.write(&resp)
}

// applyRun applies the pending SET run, with one StoreBatch when it
// holds at least batchMin SETs, and appends an OK response per SET.
func (c *conn) applyRun() {
	n := len(c.runSeqs)
	if n == 0 {
		return
	}
	if n >= batchMin {
		c.runNS.s.StoreBatch(c.runKeys, c.runVals)
		c.srv.stats.setBatches.Add(1)
		c.srv.stats.batchedSets.Add(uint64(n))
	} else {
		for i, k := range c.runKeys {
			c.runNS.s.Store(k, c.runVals[i])
		}
	}
	for _, seq := range c.runSeqs {
		c.write(&wire.Response{Seq: seq, Op: wire.OpSet, Status: wire.StatusOK})
	}
	clear(c.runVals) // the trie owns the values now
	c.runSeqs, c.runKeys, c.runVals = c.runSeqs[:0], c.runKeys[:0], c.runVals[:0]
}

// send appends resp to the write buffer after the pending run's
// responses, so responses leave in submission order.
func (c *conn) send(resp *wire.Response) {
	c.applyRun()
	c.write(resp)
}

// write encodes resp and appends it to the write buffer. A write error
// sticks in the buffer and ends serve at its next flush.
func (c *conn) write(resp *wire.Response) {
	out, err := wire.AppendResponse(c.out[:0], resp)
	if err != nil {
		// Encoding can only fail on a server bug (oversized payload we
		// built ourselves); degrade to a plain error reply.
		out, _ = wire.AppendResponse(out[:0], &wire.Response{
			Seq: resp.Seq, Op: resp.Op, Status: wire.StatusErr,
			Val: []byte("response too large"),
		})
	}
	c.out = out
	c.bw.Write(out)
}

// lookupNS resolves a namespace with the one-entry cache.
func (c *conn) lookupNS(name []byte) (*namespace, error) {
	if c.lastNS != nil && bytes.Equal(name, c.lastNSName) {
		return c.lastNS, nil
	}
	ns, err := c.srv.lookupNS(name)
	if err != nil {
		return nil, err
	}
	c.lastNSName = append(c.lastNSName[:0], name...)
	c.lastNS = ns
	return ns, nil
}

// scanInto walks a positioned cursor forward, bounded by the entry
// limit and maxScanBytes.
func scanInto(dst []wire.Entry, ok bool, next func() bool, key func() uint64, val func() []byte, limit uint32) []wire.Entry {
	total := 0
	for ; ok && uint32(len(dst)) < limit; ok = next() {
		v := val()
		total += len(v) + 12
		if len(dst) > 0 && total > maxScanBytes {
			break
		}
		dst = append(dst, wire.Entry{Key: key(), Val: v})
	}
	return dst
}

// writeServerProm appends the server-level counters to a STATS
// exposition, after the namespace collector's families.
func (s *Server) writeServerProm(buf *bytes.Buffer) {
	st := s.stats.snapshot()
	emit := func(name, help, typ string, v any) {
		fmt.Fprintf(buf, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, typ, name, v)
	}
	emit("skiptried_conns_accepted_total", "Connections accepted.", "counter", st.ConnsAccepted)
	emit("skiptried_conns_open", "Connections currently open.", "gauge", st.ConnsOpen)
	emit("skiptried_frames_total", "Request frames decoded.", "counter", st.Frames)
	emit("skiptried_shutdown_rejects_total", "Frames rejected with SHUTDOWN (drain).", "counter", st.ShutdownRejects)
	emit("skiptried_protocol_errors_total", "Malformed frames (connection closed).", "counter", st.ProtoErrors)
	emit("skiptried_set_batches_total", "StoreBatch calls coalesced from pipelined SETs.", "counter", st.SetBatches)
	emit("skiptried_batched_sets_total", "SETs applied through coalesced batches.", "counter", st.BatchedSets)
	emit("skiptried_namespaces", "Namespaces created.", "gauge", st.Namespaces)
}
