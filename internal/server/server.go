// Package server implements the skiptried network front-end: a TCP
// server exposing Sharded[[]byte] namespaces over the internal/wire
// protocol with pipelining, write batching, and bounded per-connection
// buffering. cmd/skiptried wraps it in a binary; the S4 experiment and
// the e2e/bench CI lanes drive it in-process over a loopback listener.
//
// # Connection architecture
//
// Each connection runs one goroutine over a 64 KiB read buffer and a
// 64 KiB write buffer. The goroutine decodes the frames already
// buffered, executes each one in place against its namespace, and
// appends the response to the write buffer. It flushes when the read
// buffer holds no complete frame, so a pipelined burst costs about one
// syscall in each direction. Every request on a connection, rejections
// included, is answered in submission order.
//
// # Backpressure
//
// TCP flow control is the backpressure: the server reads at most one
// buffer of a connection's frames ahead of its answers, the rest wait
// in the socket, and the server blocks on the write when the client
// stops reading. A client that floods its socket or stops reading
// stalls its own connection and nobody else's. Per-connection memory is bounded by the two buffers,
// one pending SET run and one scan response. This server never sends
// StatusBusy.
//
// # Write batching
//
// A run of at least 8 consecutive SETs on one namespace, capped at 64,
// is applied with one StoreBatch call (sorted run, hinted descents)
// instead of per-key Stores. SETs wait in the run until another
// request, a full run or a flush applies them. Batching never reorders
// effects: the run is contiguous in submission order and StoreBatch
// keeps last-wins semantics for duplicate keys, so per-connection
// program order is preserved.
//
// # Namespaces and metrics
//
// Namespaces are created lazily on first touch, each with its own
// routing table (WithAutoReshard on) and its own Metrics collector.
// Per-namespace collectors are deliberate: WithLatencySampling arms a
// shared collector first-wins, so structures sharing one collector
// write into one histogram set — code that then summed "per-structure"
// snapshots would double-count every sample. One collector per
// namespace keeps STATS(ns) exact and additive across namespaces.
//
// # Drain
//
// Drain (the SIGTERM path) closes the listener, then switches every
// connection to drain mode: frames decoded before the switch complete
// and their responses flush, while frames decoded after it are rejected
// with StatusShutdown. Connections close when the client disconnects or
// after the linger deadline, whichever comes first; Drain returns when
// every connection is gone.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"skiptrie"
)

// Config parameterizes a Server. The zero value selects the defaults.
type Config struct {
	// Shards is the initial shard count per namespace (0 = GOMAXPROCS,
	// per skiptrie.WithShards).
	Shards int
	// MaxShards caps balancer-driven splits per namespace (0 = package
	// maximum).
	MaxShards int
	// ReshardEvery is the auto-reshard balancer interval (0 = the 50ms
	// default). The balancer is always on: the server is the reshard
	// subsystem's realistic consumer.
	ReshardEvery time.Duration
	// LatencyRate is the server-side WithLatencySampling rate per
	// namespace. Default 1/64; negative disables sampling.
	LatencyRate float64
	// DrainLinger is how long a draining connection keeps answering
	// late frames with StatusShutdown before closing. Default 250ms.
	DrainLinger time.Duration
}

func (c Config) withDefaults() Config {
	if c.LatencyRate == 0 {
		c.LatencyRate = 1.0 / 64
	}
	if c.DrainLinger <= 0 {
		c.DrainLinger = 250 * time.Millisecond
	}
	return c
}

// Stats is a point-in-time snapshot of the server's own counters
// (the data-path metrics live on the per-namespace collectors).
type Stats struct {
	ConnsAccepted   uint64 // connections accepted
	ConnsOpen       int64  // connections currently open
	Frames          uint64 // request frames decoded
	BusyRejects     uint64 // frames rejected with StatusBusy: always 0, this server sends none
	ShutdownRejects uint64 // frames rejected with StatusShutdown (drain)
	ProtoErrors     uint64 // malformed frames (connection closed after)
	SetBatches      uint64 // StoreBatch calls applying pipelined SET runs
	BatchedSets     uint64 // SETs applied through those batches
	Namespaces      int64  // namespaces created
}

type serverStats struct {
	connsAccepted   atomic.Uint64
	connsOpen       atomic.Int64
	frames          atomic.Uint64
	shutdownRejects atomic.Uint64
	protoErrors     atomic.Uint64
	setBatches      atomic.Uint64
	batchedSets     atomic.Uint64
	namespaces      atomic.Int64
}

func (s *serverStats) snapshot() Stats {
	return Stats{
		ConnsAccepted:   s.connsAccepted.Load(),
		ConnsOpen:       s.connsOpen.Load(),
		Frames:          s.frames.Load(),
		ShutdownRejects: s.shutdownRejects.Load(),
		ProtoErrors:     s.protoErrors.Load(),
		SetBatches:      s.setBatches.Load(),
		BatchedSets:     s.batchedSets.Load(),
		Namespaces:      s.namespaces.Load(),
	}
}

// namespace is one tenant: a routing table and its metrics collector.
type namespace struct {
	name string
	s    *skiptrie.Sharded[[]byte]
	m    *skiptrie.Metrics
}

// Server serves the wire protocol over a listener. Create with New,
// start with Serve, stop with Drain.
type Server struct {
	cfg   Config
	stats serverStats

	mu       sync.Mutex
	nss      map[string]*namespace
	conns    map[*conn]struct{}
	ln       net.Listener
	draining bool

	wg sync.WaitGroup // one per live connection
}

// New returns an idle server.
func New(cfg Config) *Server {
	return &Server{
		cfg:   cfg.withDefaults(),
		nss:   make(map[string]*namespace),
		conns: make(map[*conn]struct{}),
	}
}

// ErrDraining is returned by Serve when the listener was closed by
// Drain — the clean-shutdown outcome.
var ErrDraining = errors.New("server: draining")

// Serve accepts connections on ln until Drain closes it. It returns
// ErrDraining on clean shutdown and the accept error otherwise. The
// caller owns ln's lifetime only until Serve starts; Drain closes it.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return ErrDraining
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrDraining
			}
			return err
		}
		s.startConn(nc)
	}
}

// startConn registers and launches one connection's goroutine.
// Connections accepted after drain began are refused immediately.
func (s *Server) startConn(nc net.Conn) {
	c := newConn(s, nc)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.stats.connsAccepted.Add(1)
	s.stats.connsOpen.Add(1)
	s.wg.Add(1)
	go c.serve()
}

// dropConn unregisters a finished connection.
func (s *Server) dropConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.stats.connsOpen.Add(-1)
}

// Drain performs the graceful shutdown: stop accepting, let the
// frames already decoded finish, answer later frames with
// StatusShutdown until the configured linger elapses, then close every
// connection. It blocks until all connection goroutines have exited
// and is idempotent.
func (s *Server) Drain() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if !already {
		deadline := time.Now().Add(s.cfg.DrainLinger)
		for _, c := range conns {
			c.beginDrain(deadline)
		}
	}
	s.wg.Wait()
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Stats snapshots the server-level counters.
func (s *Server) Stats() Stats { return s.stats.snapshot() }

// lookupNS returns the namespace, creating it lazily. name is copied
// (it aliases a frame buffer at the call site).
func (s *Server) lookupNS(name []byte) (*namespace, error) {
	key := string(name) // no alloc on the hit path (map lookup on []byte->string conversion)
	s.mu.Lock()
	ns := s.nss[key]
	s.mu.Unlock()
	if ns != nil {
		return ns, nil
	}
	return s.createNS(key)
}

func (s *Server) createNS(key string) (*namespace, error) {
	m := &skiptrie.Metrics{}
	opts := []skiptrie.ShardedOption{
		skiptrie.WithMetrics(m),
		skiptrie.WithShards(s.cfg.Shards),
		skiptrie.WithMaxShards(s.cfg.MaxShards),
		skiptrie.WithAutoReshard(s.cfg.ReshardEvery),
	}
	if s.cfg.LatencyRate > 0 {
		opts = append(opts, skiptrie.WithLatencySampling(s.cfg.LatencyRate))
	}
	st, err := skiptrie.NewSharded[[]byte](opts...)
	if err != nil {
		return nil, fmt.Errorf("server: namespace %q: %w", key, err)
	}
	ns := &namespace{name: key, s: st, m: m}
	s.mu.Lock()
	if prev := s.nss[key]; prev != nil { // lost the creation race
		s.mu.Unlock()
		st.Close()
		return prev, nil
	}
	s.nss[key] = ns
	s.mu.Unlock()
	s.stats.namespaces.Add(1)
	return ns, nil
}

// NamespaceMetrics returns the named namespace's collector, or nil if
// the namespace has never been touched. In-process harnesses (S4) use
// it to report server-side histograms without a STATS round trip.
func (s *Server) NamespaceMetrics(name string) *skiptrie.Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ns := s.nss[name]; ns != nil {
		return ns.m
	}
	return nil
}

// NamespaceShards returns the named namespace's current shard count,
// or 0 if it has never been touched.
func (s *Server) NamespaceShards(name string) int {
	s.mu.Lock()
	ns := s.nss[name]
	s.mu.Unlock()
	if ns == nil {
		return 0
	}
	return ns.s.Shards()
}

// Close drains the server and releases every namespace's balancer.
func (s *Server) Close() {
	s.Drain()
	s.mu.Lock()
	nss := make([]*namespace, 0, len(s.nss))
	for _, ns := range s.nss {
		nss = append(nss, ns)
	}
	s.mu.Unlock()
	for _, ns := range nss {
		ns.s.Close()
	}
}
