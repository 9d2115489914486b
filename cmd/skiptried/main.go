// Command skiptried serves Sharded[[]byte] namespaces over the wire
// protocol (see internal/wire). It listens on -addr, optionally writes
// the resolved address to -addr-file (so harnesses can bind port 0 and
// discover the port without parsing logs), and drains gracefully on
// SIGTERM/SIGINT: frames already decoded finish, later frames get
// SHUTDOWN, and the process logs "drained, exiting" before returning 0.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"skiptrie/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7171", "listen address (use :0 for a random port)")
		addrFile  = flag.String("addr-file", "", "write the resolved listen address to this file")
		shards    = flag.Int("shards", 0, "initial shards per namespace (0 = GOMAXPROCS)")
		maxShards = flag.Int("max-shards", 0, "max shards per namespace (0 = package maximum)")
		reshard   = flag.Duration("reshard-every", 0, "auto-reshard balancer interval (0 = default)")
		latRate   = flag.Float64("latency-rate", 0, "per-namespace latency sampling rate (0 = default, <0 disables)")
		linger    = flag.Duration("drain-linger", 0, "how long draining connections answer late frames (0 = default)")
	)
	flag.Parse()

	srv := server.New(server.Config{
		Shards:       *shards,
		MaxShards:    *maxShards,
		ReshardEvery: *reshard,
		LatencyRate:  *latRate,
		DrainLinger:  *linger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("skiptried: listen: %v", err)
	}
	resolved := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(resolved+"\n"), 0o644); err != nil {
			log.Fatalf("skiptried: write addr-file: %v", err)
		}
	}
	log.Printf("skiptried: listening on %s", resolved)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	drained := make(chan struct{})
	go func() {
		sig := <-sigc
		log.Printf("skiptried: %v: draining", sig)
		srv.Close()
		close(drained)
	}()

	start := time.Now()
	if err := srv.Serve(ln); err != server.ErrDraining {
		log.Fatalf("skiptried: serve: %v", err)
	}
	<-drained // Serve returns as soon as the listener closes; wait for the linger
	st := srv.Stats()
	fmt.Fprintf(os.Stderr,
		"skiptried: drained, exiting (up %s, conns=%d frames=%d shutdown=%d protoerr=%d batches=%d namespaces=%d)\n",
		time.Since(start).Round(time.Millisecond), st.ConnsAccepted, st.Frames,
		st.ShutdownRejects, st.ProtoErrors, st.SetBatches, st.Namespaces)
}
