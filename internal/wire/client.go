package wire

import (
	"bufio"
	"fmt"
	"net"
	"time"
)

// Client is a pipelining protocol client over one connection. It is
// deliberately small: Send buffers an encoded request, Flush pushes
// the buffer to the socket, Recv decodes the next response in arrival
// order. skiptried answers in submission order, but the protocol does
// not promise it, so callers that pipeline keep a window of in-flight
// seqs and match responses to requests by Response.Seq.
//
// A Client is not safe for concurrent use; drive one per goroutine.
// Responses alias an internal read buffer and are valid until the
// next Recv.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	rbuf []byte
	seq  uint32
}

// Dial connects to a skiptried server.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}
}

// Conn exposes the underlying connection (for deadlines).
func (c *Client) Conn() net.Conn { return c.conn }

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// NextSeq returns a fresh sequence number (monotone per client).
func (c *Client) NextSeq() uint32 {
	c.seq++
	return c.seq
}

// Send buffers one encoded request. The request's Seq must be set by
// the caller (NextSeq is the conventional source). Nothing reaches the
// socket until the write buffer fills or Flush is called.
func (c *Client) Send(r *Request) error {
	buf, err := AppendRequest(c.bw.AvailableBuffer(), r)
	if err != nil {
		return err
	}
	_, err = c.bw.Write(buf)
	return err
}

// Flush pushes buffered requests to the socket.
func (c *Client) Flush() error { return c.bw.Flush() }

// Recv decodes the next response in arrival order. The response
// aliases the client's read buffer and is valid until the next Recv.
func (c *Client) Recv(resp *Response) error {
	body, err := ReadFrame(c.br, c.rbuf)
	if err != nil {
		return err
	}
	c.rbuf = body[:cap(body)]
	return DecodeResponse(body, resp)
}

// do runs one synchronous request/response exchange.
func (c *Client) do(req *Request, resp *Response) error {
	req.Seq = c.NextSeq()
	if err := c.Send(req); err != nil {
		return err
	}
	if err := c.Flush(); err != nil {
		return err
	}
	if err := c.Recv(resp); err != nil {
		return err
	}
	if resp.Seq != req.Seq {
		return fmt.Errorf("wire: response seq %d for request %d", resp.Seq, req.Seq)
	}
	return nil
}

// statusErr converts a non-OK/NotFound response into an error.
func statusErr(resp *Response) error {
	return fmt.Errorf("wire: %s: %s (%s)", resp.Op, resp.Status, resp.Val)
}

// Get fetches a key. The returned value aliases the read buffer.
func (c *Client) Get(ns []byte, key uint64) (val []byte, ok bool, err error) {
	var resp Response
	if err := c.do(&Request{Op: OpGet, NS: ns, Key: key}, &resp); err != nil {
		return nil, false, err
	}
	switch resp.Status {
	case StatusOK:
		return resp.Val, true, nil
	case StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, statusErr(&resp)
	}
}

// Set upserts a key.
func (c *Client) Set(ns []byte, key uint64, val []byte) error {
	var resp Response
	if err := c.do(&Request{Op: OpSet, NS: ns, Key: key, Val: val}, &resp); err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return statusErr(&resp)
	}
	return nil
}

// Del deletes a key, reporting whether it was present.
func (c *Client) Del(ns []byte, key uint64) (bool, error) {
	var resp Response
	if err := c.do(&Request{Op: OpDel, NS: ns, Key: key}, &resp); err != nil {
		return false, err
	}
	switch resp.Status {
	case StatusOK:
		return true, nil
	case StatusNotFound:
		return false, nil
	default:
		return false, statusErr(&resp)
	}
}

// Scan returns up to limit entries with key >= from, in key order.
// snapshot selects OpSnapScan (strict point-in-time) over OpScan
// (live, weakly consistent across shards). Entries alias the read
// buffer.
func (c *Client) Scan(ns []byte, from uint64, limit uint32, snapshot bool) ([]Entry, error) {
	op := OpScan
	if snapshot {
		op = OpSnapScan
	}
	var resp Response
	if err := c.do(&Request{Op: op, NS: ns, Key: from, Limit: limit}, &resp); err != nil {
		return nil, err
	}
	if resp.Status != StatusOK {
		return nil, statusErr(&resp)
	}
	return resp.Entries, nil
}

// Stats returns the namespace's Prometheus text exposition. The text
// aliases the read buffer.
func (c *Client) Stats(ns []byte) ([]byte, error) {
	var resp Response
	if err := c.do(&Request{Op: OpStats, NS: ns}, &resp); err != nil {
		return nil, err
	}
	if resp.Status != StatusOK {
		return nil, statusErr(&resp)
	}
	return resp.Val, nil
}
