package server_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"skiptrie/internal/server"
	"skiptrie/internal/testenv"
	"skiptrie/internal/wire"
)

// start launches a server on a random loopback port and returns it
// with its address. The server is closed when the test ends.
func start(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != server.ErrDraining {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func dial(t *testing.T, addr string) *wire.Client {
	t.Helper()
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerOps(t *testing.T) {
	srv, addr := start(t, server.Config{})
	c := dial(t, addr)
	ns := []byte("default")

	if _, ok, err := c.Get(ns, 1); err != nil || ok {
		t.Fatalf("get missing: ok=%v err=%v", ok, err)
	}
	for k := uint64(10); k < 20; k++ {
		if err := c.Set(ns, k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, err := c.Get(ns, 13)
	if err != nil || !ok || string(v) != "v13" {
		t.Fatalf("get 13: %q ok=%v err=%v", v, ok, err)
	}
	if found, err := c.Del(ns, 13); err != nil || !found {
		t.Fatalf("del: found=%v err=%v", found, err)
	}
	if found, err := c.Del(ns, 13); err != nil || found {
		t.Fatalf("re-del: found=%v err=%v", found, err)
	}

	for _, snap := range []bool{false, true} {
		entries, err := c.Scan(ns, 11, 4, snap)
		if err != nil {
			t.Fatal(err)
		}
		want := []uint64{11, 12, 14, 15} // 13 deleted
		if len(entries) != len(want) {
			t.Fatalf("scan(snap=%v) len=%d want %d", snap, len(entries), len(want))
		}
		for i, e := range entries {
			if e.Key != want[i] || string(e.Val) != fmt.Sprintf("v%d", e.Key) {
				t.Fatalf("scan(snap=%v)[%d] = %d %q", snap, i, e.Key, e.Val)
			}
		}
	}

	stats, err := c.Stats(ns)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"skiptrie_ops_total", "skiptried_frames_total", "skiptried_conns_open"} {
		if !bytes.Contains(stats, []byte(want)) {
			t.Errorf("STATS missing %q", want)
		}
	}
	if srv.Stats().ProtoErrors != 0 {
		t.Errorf("protocol errors: %+v", srv.Stats())
	}
}

func TestServerNamespaceIsolation(t *testing.T) {
	srv, addr := start(t, server.Config{})
	c := dial(t, addr)
	if err := c.Set([]byte("a"), 1, []byte("from-a")); err != nil {
		t.Fatal(err)
	}
	if err := c.Set([]byte("b"), 1, []byte("from-b")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := c.Get([]byte("a"), 1); !ok || string(v) != "from-a" {
		t.Fatalf("ns a: %q ok=%v", v, ok)
	}
	if v, ok, _ := c.Get([]byte("b"), 1); !ok || string(v) != "from-b" {
		t.Fatalf("ns b: %q ok=%v", v, ok)
	}
	if _, ok, _ := c.Get([]byte("c"), 1); ok {
		t.Fatal("ns c should be empty")
	}
	if got := srv.Stats().Namespaces; got != 3 {
		t.Fatalf("namespaces = %d, want 3", got)
	}
	if srv.NamespaceMetrics("a") == nil || srv.NamespaceMetrics("a") == srv.NamespaceMetrics("b") {
		t.Fatal("namespaces must have distinct collectors")
	}
}

// TestServerPipelinedBatching flushes a burst of SETs in one write.
// The server reads the burst as one buffer of whole frames, so the run
// coalesces into StoreBatch calls on the default Config.
func TestServerPipelinedBatching(t *testing.T) {
	srv, addr := start(t, server.Config{})
	c := dial(t, addr)
	ns := []byte("default")
	const burst = 64
	base := uint64(1 << 20)
	for i := uint64(0); i < burst; i++ {
		if err := c.Send(&wire.Request{Seq: c.NextSeq(), Op: wire.OpSet, NS: ns, Key: base + i, Val: []byte("burst")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	for i := 0; i < burst; i++ {
		if err := c.Recv(&resp); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if resp.Status != wire.StatusOK {
			t.Fatalf("recv %d: status %v (%s)", i, resp.Status, resp.Val)
		}
	}
	for i := uint64(0); i < burst; i++ {
		if v, ok, err := c.Get(ns, base+i); err != nil || !ok || string(v) != "burst" {
			t.Fatalf("get %d: %q ok=%v err=%v", base+i, v, ok, err)
		}
	}
	st := srv.Stats()
	if st.SetBatches == 0 || st.BatchedSets < 8 {
		t.Errorf("no batching observed: %+v", st)
	}
}

// TestServerDrain pins the graceful-drain contract: frames decoded
// before the drain switch complete with their real results, and frames
// arriving after it get a clean SHUTDOWN status on a still-open
// connection, every response in submission order.
func TestServerDrain(t *testing.T) {
	cases := []struct {
		name string
		sets int // pipelined, in-flight when drain begins
		late int // frames sent after drain
	}{
		{"idle", 0, 1},
		{"pipelined", 32, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := start(t, server.Config{DrainLinger: 3 * time.Second})
			c := dial(t, addr)
			ns := []byte("default")
			for k := uint64(0); k < 2048; k++ {
				if err := c.Set(ns, k, []byte("prefill")); err != nil {
					t.Fatal(err)
				}
			}
			prefillFrames := srv.Stats().Frames

			var sent []uint32 // seqs after the prefill, in submission order
			send := func(req wire.Request) {
				req.Seq = c.NextSeq()
				sent = append(sent, req.Seq)
				if err := c.Send(&req); err != nil {
					t.Fatal(err)
				}
			}
			inFlight := 0
			if tc.sets > 0 {
				// A pipelined scan and SET run, every frame decoded before
				// the drain flag flips.
				send(wire.Request{Op: wire.OpScan, NS: ns, Limit: 2048})
				for i := 0; i < tc.sets; i++ {
					send(wire.Request{Op: wire.OpSet, NS: ns, Key: uint64(1<<20 + i), Val: []byte("inflight")})
				}
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
				inFlight = tc.sets + 1
				want := prefillFrames + uint64(inFlight)
				waitFor(t, "requests read", func() bool { return srv.Stats().Frames >= want })
			}

			drained := make(chan struct{})
			go func() { srv.Drain(); close(drained) }()
			waitFor(t, "drain flag", srv.Draining)
			// Draining() flips before each connection's own switch; give
			// beginDrain a beat so late frames deterministically land
			// after it (linger is 3s, so there is no racing deadline).
			time.Sleep(100 * time.Millisecond)

			for i := 0; i < tc.late; i++ {
				send(wire.Request{Op: wire.OpGet, NS: ns, Key: 1})
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}

			var resp wire.Response
			for i, seq := range sent {
				if err := c.Recv(&resp); err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				want := wire.StatusOK
				if i >= inFlight {
					want = wire.StatusShutdown
				}
				if resp.Seq != seq || resp.Status != want {
					t.Fatalf("recv %d: seq %d status %v (%s), want seq %d status %v",
						i, resp.Seq, resp.Status, resp.Val, seq, want)
				}
			}
			// Closing our end lets the drain complete before the linger.
			c.Close()
			select {
			case <-drained:
			case <-time.After(10 * time.Second):
				t.Fatal("Drain did not return")
			}
			if got := srv.Stats().ShutdownRejects; got != uint64(tc.late) {
				t.Errorf("shutdown rejects = %d, want %d", got, tc.late)
			}
			if _, err := wire.Dial(addr, 200*time.Millisecond); err == nil {
				t.Error("dial succeeded after drain")
			}
		})
	}
}

// TestServerBusyBackpressure pins the per-connection bounds that
// replaced the request queue. Each idle connection costs exactly one
// goroutine. A pipelined flood written before any response is read is
// answered in full and in submission order, with no BUSY: TCP flow
// control, not rejection, holds the client back. The connection keeps
// serving afterwards.
func TestServerBusyBackpressure(t *testing.T) {
	srv, addr := start(t, server.Config{})

	const idle = 32
	base := runtime.NumGoroutine()
	for i := 0; i < idle; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
	}
	waitFor(t, "idle connections registered", func() bool { return srv.Stats().ConnsOpen == idle })
	// Registration precedes the goroutine's start; the count must then
	// settle at exactly one goroutine per connection.
	waitFor(t, fmt.Sprintf("%d goroutines for %d idle connections", idle, idle), func() bool {
		return runtime.NumGoroutine()-base == idle
	})

	c := dial(t, addr)
	ns := []byte("default")
	// 2048 frames, far past the old 128-deep request queue: blocks of 16
	// SETs, 16 GETs, 16 DELs and 16 GETs over the block's 16 keys. The
	// statuses pin execution order; the seqs pin response order.
	const flood = 2048
	type expect struct {
		seq    uint32
		key    uint64
		status wire.Status
	}
	want := make([]expect, 0, flood)
	for i := 0; i < flood; i++ {
		key := uint64(i/64*16 + i%16)
		req := wire.Request{Seq: c.NextSeq(), NS: ns, Key: key}
		st := wire.StatusOK
		switch i % 64 / 16 {
		case 0:
			req.Op, req.Val = wire.OpSet, []byte(fmt.Sprintf("v%d", key))
		case 1:
			req.Op = wire.OpGet
		case 2:
			req.Op = wire.OpDel
		default:
			req.Op, st = wire.OpGet, wire.StatusNotFound
		}
		if err := c.Send(&req); err != nil {
			t.Fatal(err)
		}
		want = append(want, expect{req.Seq, key, st})
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	for i, w := range want {
		if err := c.Recv(&resp); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if resp.Seq != w.seq || resp.Status != w.status {
			t.Fatalf("recv %d: seq %d status %v (%s), want seq %d status %v", i, resp.Seq, resp.Status, resp.Val, w.seq, w.status)
		}
		if resp.Op == wire.OpGet && resp.Status == wire.StatusOK && string(resp.Val) != fmt.Sprintf("v%d", w.key) {
			t.Fatalf("recv %d: GET %d = %q", i, w.key, resp.Val)
		}
	}
	if got := srv.Stats().BusyRejects; got != 0 {
		t.Errorf("busy rejects = %d, want 0", got)
	}
	// The connection keeps serving after the flood.
	if err := c.Set(ns, 7, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get(ns, 7); err != nil || !ok || string(v) != "after" {
		t.Fatalf("get after flood: %q ok=%v err=%v", v, ok, err)
	}
}

// TestServerMalformedFrame sends garbage and expects one ERR response,
// a closed connection, and a protocol-error count — not a panic.
// Requests pipelined ahead of the garbage are answered first, in
// submission order, with the ERR last.
func TestServerMalformedFrame(t *testing.T) {
	for _, lead := range []int{0, 8} {
		t.Run(fmt.Sprintf("lead%d", lead), func(t *testing.T) {
			srv, addr := start(t, server.Config{})
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			var frames []byte
			for i := 0; i < lead; i++ {
				frames, err = wire.AppendRequest(frames, &wire.Request{Seq: uint32(i + 1), Op: wire.OpGet, NS: []byte("ns"), Key: uint64(i)})
				if err != nil {
					t.Fatal(err)
				}
			}
			// A framed body with an unknown opcode.
			body := []byte{0, 0, 0, byte(lead + 1), 99, 0} // seq=lead+1, op=99, nsLen=0
			frames = binary.BigEndian.AppendUint32(frames, uint32(len(body)))
			frames = append(frames, body...)
			if _, err := nc.Write(frames); err != nil {
				t.Fatal(err)
			}
			br := bytes.NewBuffer(nil)
			if _, err := io.Copy(br, nc); err != nil {
				t.Fatal(err) // server closes the conn after replying
			}
			rd := bytes.NewReader(br.Bytes())
			var resp wire.Response
			for i := 0; i <= lead; i++ {
				bodyOut, err := wire.ReadFrame(rd, nil)
				if err != nil {
					t.Fatalf("response %d: %v", i, err)
				}
				if err := wire.DecodeResponse(bodyOut, &resp); err != nil {
					t.Fatal(err)
				}
				want := wire.StatusNotFound
				if i == lead {
					want = wire.StatusErr
				}
				if resp.Seq != uint32(i+1) || resp.Status != want {
					t.Fatalf("response %d: seq %d status %v, want seq %d status %v", i, resp.Seq, resp.Status, i+1, want)
				}
			}
			if _, err := wire.ReadFrame(rd, nil); err != io.EOF {
				t.Fatalf("after ERR: %v, want EOF", err)
			}
			waitFor(t, "protocol error count", func() bool { return srv.Stats().ProtoErrors == 1 })
		})
	}
}

// TestServerChurnAutoReshard is the race-lane torture: connections
// churn while every namespace's balancer splits shards under the load.
// It asserts zero protocol errors and ordered scans at the end.
func TestServerChurnAutoReshard(t *testing.T) {
	srv, addr := start(t, server.Config{
		Shards:       1,
		MaxShards:    32,
		ReshardEvery: 2 * time.Millisecond,
	})
	const workers = 8
	rounds := testenv.Scale(6)
	opsPerConn := 120
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ns := []byte{'n', byte('0' + w%3)} // 3 namespaces shared across workers
			for r := 0; r < rounds; r++ {
				c, err := wire.Dial(addr, 5*time.Second)
				if err != nil {
					errs <- err
					return
				}
				seed := uint64(w*1000 + r)
				var resp wire.Response
				for i := 0; i < opsPerConn; i += 8 {
					// Pipeline a window of 8 mixed ops.
					sent := 0
					for j := 0; j < 8; j++ {
						seed = seed*6364136223846793005 + 1442695040888963407
						key := seed >> 32
						var req wire.Request
						switch j % 4 {
						case 0, 1:
							req = wire.Request{Op: wire.OpSet, NS: ns, Key: key, Val: []byte("churn")}
						case 2:
							req = wire.Request{Op: wire.OpGet, NS: ns, Key: key}
						default:
							op := wire.OpScan
							if j == 7 {
								op = wire.OpSnapScan
							}
							req = wire.Request{Op: op, NS: ns, Key: key, Limit: 16}
						}
						req.Seq = c.NextSeq()
						if err := c.Send(&req); err != nil {
							errs <- err
							return
						}
						sent++
					}
					if err := c.Flush(); err != nil {
						errs <- err
						return
					}
					for j := 0; j < sent; j++ {
						if err := c.Recv(&resp); err != nil {
							errs <- fmt.Errorf("worker %d recv: %w", w, err)
							return
						}
						if resp.Status == wire.StatusErr {
							errs <- fmt.Errorf("worker %d: ERR response: %s", w, resp.Val)
							return
						}
						if len(resp.Entries) > 1 {
							for k := 1; k < len(resp.Entries); k++ {
								if resp.Entries[k].Key <= resp.Entries[k-1].Key {
									errs <- fmt.Errorf("worker %d: scan out of order", w)
									return
								}
							}
						}
					}
				}
				c.Close()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.ProtoErrors != 0 {
		t.Fatalf("protocol errors under churn: %+v", st)
	}
	if st.ConnsAccepted < uint64(workers) {
		t.Fatalf("implausible accept count: %+v", st)
	}
	// The balancer had real load on shard 1 of 32; it should have split.
	if got := srv.NamespaceShards("n0"); got < 1 {
		t.Fatalf("namespace n0 shards = %d", got)
	}
}
