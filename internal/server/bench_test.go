package server_test

import (
	"net"
	"testing"
	"time"

	"skiptrie/internal/server"
	"skiptrie/internal/stats"
	"skiptrie/internal/wire"
)

// benchClient stands up a server on loopback and a connected client.
func benchClient(b *testing.B, cfg server.Config) *wire.Client {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(cfg)
	go srv.Serve(ln)
	b.Cleanup(srv.Close)
	c, err := wire.Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

const benchKeys = 1 << 14

func prefill(b *testing.B, c *wire.Client, ns []byte) {
	b.Helper()
	const window = 64 // one full SET run: each window is one StoreBatch
	val := []byte("benchmark-value-16")
	var resp wire.Response
	for base := uint64(0); base < benchKeys; base += window {
		for k := base; k < base+window; k++ {
			if err := c.Send(&wire.Request{Seq: c.NextSeq(), Op: wire.OpSet, NS: ns, Key: k * 64, Val: val}); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < window; i++ {
			if err := c.Recv(&resp); err != nil {
				b.Fatal(err)
			}
			if resp.Status != wire.StatusOK {
				b.Fatalf("prefill status %v", resp.Status)
			}
		}
	}
}

// reportP99 attaches the client-observed p99 latency to the benchmark
// line; the CI bench gate extracts it into BENCH_10.json.
func reportP99(b *testing.B, h *stats.Hist) {
	if h.Count > 0 {
		b.ReportMetric(float64(h.Quantile(0.99)), "p99-ns")
	}
}

// BenchmarkWireGet measures synchronous GET round trips over loopback:
// the per-request floor of the wire path (two syscalls + codec + trie
// read per op).
func BenchmarkWireGet(b *testing.B) {
	c := benchClient(b, server.Config{})
	ns := []byte("bench")
	prefill(b, c, ns)
	var h stats.Hist
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := (uint64(i) % benchKeys) * 64
		t0 := time.Now()
		_, ok, err := c.Get(ns, k)
		h.Record(int64(time.Since(t0)))
		if err != nil || !ok {
			b.Fatalf("get %d: ok=%v err=%v", k, ok, err)
		}
	}
	b.StopTimer()
	reportP99(b, &h)
}

// BenchmarkWireSet measures synchronous SET round trips.
func BenchmarkWireSet(b *testing.B) {
	c := benchClient(b, server.Config{})
	ns := []byte("bench")
	val := []byte("benchmark-value-16")
	var h stats.Hist
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		err := c.Set(ns, uint64(i)*64, val)
		h.Record(int64(time.Since(t0)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportP99(b, &h)
}

// BenchmarkWirePipelined measures SET throughput with a 64-deep
// pipeline window — the shape the server coalesces into StoreBatch.
// sec/op is per request; p99-ns is the client-observed request latency
// (flush to response) under that window.
func BenchmarkWirePipelined(b *testing.B) {
	c := benchClient(b, server.Config{})
	ns := []byte("bench")
	val := []byte("benchmark-value-16")
	const window = 64
	var h stats.Hist
	var resp wire.Response
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := window
		if left := b.N - done; left < n {
			n = left
		}
		for i := 0; i < n; i++ {
			if err := c.Send(&wire.Request{Seq: c.NextSeq(), Op: wire.OpSet, NS: ns, Key: uint64(done+i) * 64, Val: val}); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := c.Recv(&resp); err != nil {
				b.Fatal(err)
			}
			if resp.Status != wire.StatusOK {
				b.Fatalf("status %v (%s)", resp.Status, resp.Val)
			}
			h.Record(int64(time.Since(t0)))
		}
		done += n
	}
	b.StopTimer()
	reportP99(b, &h)
}
