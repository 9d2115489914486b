package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"skiptrie/internal/harness"
	"skiptrie/internal/server"
	"skiptrie/internal/stats"
	"skiptrie/internal/wire"
	"skiptrie/internal/workload"
)

// s4ConnectionScale measures the network front-end at connection
// scale: an in-process skiptried over a loopback listener, swept from
// tens to >=1024 concurrent pipelining clients. The question the row
// sweep answers is whether throughput and client tail latency survive
// connection count — the per-connection cost is one goroutine and two
// fixed buffers, so the sweep should degrade smoothly (scheduler
// pressure) rather than collapse, with zero protocol errors. The
// goroutines column counts the server's goroutines per connection,
// sampled mid-window. The server runs with auto-resharding on, so the
// final shard column also shows the balancer reacting to the
// MovingZipf hot range under real load.
func s4ConnectionScale(sc harness.Scale) harness.Result {
	res := harness.Result{
		Name:  "S4 connection scale: wire protocol over loopback, pipelined MovingZipf mix",
		Claim: "throughput and client tails degrade smoothly with connection count; zero protocol errors at >=1024 conns",
		Header: []string{"conns", "kop/s", "p50 us", "p99 us", "p999 us",
			"goroutines/conn", "proto err", "batched sets", "shards"},
	}
	const (
		width    = 24
		pipeline = 8
		nsName   = "s4"
	)
	// Per-cell duration: the shared -dur default (150ms) is too short to
	// amortize dialing a thousand connections; give each cell at least a
	// half second of steady state.
	dur := sc.Duration
	if dur < 500*time.Millisecond {
		dur = 500 * time.Millisecond
	}
	mix := workload.Mix{InsertPct: 40, DeletePct: 10, ContainsPct: 45}
	sizer := workload.ValSizer{Min: 16, Max: 64}

	for _, conns := range []int{16, 128, 1024} {
		srv := server.New(server.Config{
			Shards:       1,
			ReshardEvery: 10 * time.Millisecond,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("conns=%d: listen: %v", conns, err))
			continue
		}
		go srv.Serve(ln)
		addr := ln.Addr().String()

		// One STATS round trip creates the namespace, so its balancer
		// goroutine is in the baseline and the goroutines column counts
		// connections alone. The setup connection stays open, in the
		// baseline too.
		setup, err := wire.Dial(addr, 10*time.Second)
		if err == nil {
			_, err = setup.Stats([]byte(nsName))
		}
		if err != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("conns=%d: namespace setup: %v", conns, err))
			srv.Close()
			continue
		}
		baseGoroutines := runtime.NumGoroutine()

		// Dial everything up front so the measured window is steady state.
		clients := make([]*wire.Client, conns)
		dialErr := 0
		for i := range clients {
			if clients[i], err = wire.Dial(addr, 10*time.Second); err != nil {
				dialErr++
			}
		}

		gen := workload.NewMovingZipf(width, 1<<(width-4), 1<<18, 1.1)
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			lat      stats.Hist
			ops      uint64
			protoErr = uint64(dialErr)
			started  int
		)
		stop := make(chan struct{})
		start := time.Now()
		for i, c := range clients {
			if c == nil {
				continue
			}
			started++
			wg.Add(1)
			go func(id int, c *wire.Client) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(2000 + int64(id)))
				val := make([]byte, sizer.Max)
				var local stats.Hist
				var lOps, lErr uint64
				var resp wire.Response
			windows:
				for w := 0; ; w++ {
					select {
					case <-stop:
						break windows
					default:
					}
					for j := 0; j < pipeline; j++ {
						key := gen.Next(rng)
						var req wire.Request
						if w%64 == 63 && j == 0 {
							req = wire.Request{Op: wire.OpSnapScan, NS: []byte(nsName), Key: key, Limit: 32}
						} else {
							switch mix.Pick(rng) {
							case workload.OpInsert:
								v := val[:sizer.Next(rng)]
								sizer.Fill(v, key)
								req = wire.Request{Op: wire.OpSet, NS: []byte(nsName), Key: key, Val: v}
							case workload.OpDelete:
								req = wire.Request{Op: wire.OpDel, NS: []byte(nsName), Key: key}
							case workload.OpContains:
								req = wire.Request{Op: wire.OpGet, NS: []byte(nsName), Key: key}
							default:
								req = wire.Request{Op: wire.OpScan, NS: []byte(nsName), Key: key, Limit: 16}
							}
						}
						req.Seq = c.NextSeq()
						if err := c.Send(&req); err != nil {
							lErr++
							break windows
						}
					}
					if err := c.Flush(); err != nil {
						lErr++
						break windows
					}
					t0 := time.Now()
					for j := 0; j < pipeline; j++ {
						if err := c.Recv(&resp); err != nil {
							lErr++
							break windows
						}
						local.Record(int64(time.Since(t0)))
						switch resp.Status {
						case wire.StatusOK, wire.StatusNotFound:
							lOps++
						default:
							lErr++
						}
					}
				}
				c.Close()
				mu.Lock()
				lat.Merge(local)
				ops += lOps
				protoErr += lErr
				mu.Unlock()
			}(i, c)
		}
		// Mid-window, every connection is open and busy: what the
		// goroutine count gained over the baseline, less one client
		// goroutine per connection, is the server's share.
		time.Sleep(dur / 2)
		perConn := float64(runtime.NumGoroutine()-baseGoroutines-started) / float64(max(started, 1))
		time.Sleep(dur - dur/2)
		close(stop)
		wg.Wait()
		elapsed := time.Since(start)
		st := srv.Stats()
		shards := srv.NamespaceShards(nsName)
		setup.Close()
		srv.Close()

		res.AddRow(
			harness.I(conns),
			harness.F(float64(ops)/float64(elapsed.Milliseconds()+1)),
			harness.Us(lat.Quantile(0.50)), harness.Us(lat.Quantile(0.99)), harness.Us(lat.Quantile(0.999)),
			harness.F(perConn), harness.I(int(protoErr)),
			harness.I(int(st.BatchedSets)), harness.I(shards),
		)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("workload: %s + scans, pipeline window %d, one SNAPSHOT-SCAN per 64 windows per conn", mix, pipeline),
		"latency is client-observed per request (window flush to response); server runs in-process with auto-resharding from 1 shard",
		"backpressure is TCP flow control (the server never sends BUSY); any status but OK/NOT_FOUND counts as a proto err, which must stay 0",
		"goroutines/conn: server goroutines per open connection, sampled mid-window; one loop per connection reads 1.0",
	)
	return res
}
