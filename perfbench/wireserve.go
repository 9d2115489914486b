package main

import (
	"bytes"
	"fmt"
	"math/bits"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"skiptrie"
	"skiptrie/internal/server"
	"skiptrie/internal/wire"
)

// This file runs wire-serve: an internal/server with its default
// Config on a loopback listener in this process, driven by two
// pipelining connections.

const (
	wsNS          = "bench"
	prefillWindow = 64 // pipelined SETs per prefill window, below the 128-deep request queue
	quietSpan     = time.Second
	warmCap       = 20 * time.Second
	dialTimeout   = 5 * time.Second
)

var wireOps = [...]wire.Op{opGet: wire.OpGet, opSet: wire.OpSet, opDel: wire.OpDel, opScan: wire.OpScan, opSnapScan: wire.OpSnapScan}

var wireClass = [...]int{opGet: classGet, opSet: classWrite, opDel: classWrite, opScan: classOrdered, opSnapScan: classOrdered}

// timedConn counts the time its reader spends blocked in Read, so the
// traced pass can split a Recv into waiting for the frame and decoding
// it.
type timedConn struct {
	net.Conn
	readNs int64
}

func (t *timedConn) Read(p []byte) (int, error) {
	t0 := nanotime()
	n, err := t.Conn.Read(p)
	t.readNs += nanotime() - t0
	return n, err
}

// frame is one request and its decoded response, copied out of the
// client's buffers for the codec timing.
type frame struct {
	req  wire.Request
	resp wire.Response
}

type wireConn struct {
	id   int
	in   *wsInput
	cl   *wire.Client
	tc   *timedConn // traced pass only
	ns   []byte
	seq  uint32
	ops  []op
	segs []segStats

	// present is this connection's view of its own churn keys, exact
	// because only it writes them and its requests apply in order.
	present []uint64

	attempted, failed uint64
	sets              uint64 // SETs in the measured window
	resp              wire.Response
	valBuf, cmpBuf    []byte

	// Traced pass only.
	log    *spanLog
	frames []frame
}

func (c *wireConn) has(i uint64) bool { return c.present[i/64]&(1<<(i%64)) != 0 }
func (c *wireConn) set(i uint64, on bool) {
	if on {
		c.present[i/64] |= 1 << (i % 64)
	} else {
		c.present[i/64] &^= 1 << (i % 64)
	}
}

func (c *wireConn) fail(o *op, format string, args ...any) bool {
	if c.failed < 5 {
		fmt.Fprintf(os.Stderr, "perfbench: conn %d: %s %#x: %s\n", c.id, opNames[o.kind], o.key, fmt.Sprintf(format, args...))
	}
	c.failed++
	return false
}

func (c *wireConn) valueOK(key uint64, v []byte) bool {
	c.cmpBuf = appendWireValue(c.cmpBuf[:0], key)
	return bytes.Equal(c.cmpBuf, v)
}

// check verifies one response against what this connection knows and
// updates its view of its own keys.
func (c *wireConn) check(o *op, r *wire.Response) bool {
	if r.Op != wireOps[o.kind] {
		return c.fail(o, "response op %s", r.Op)
	}
	if r.Status != wire.StatusOK && r.Status != wire.StatusNotFound {
		return c.fail(o, "status %s: %s", r.Status, r.Val)
	}
	own := wsClass(o.key) == 1+c.id
	switch o.kind {
	case opGet:
		mustExist := wsClass(o.key) == 0 || own && c.has(churnIndex(o.aux))
		mustMiss := own && !c.has(churnIndex(o.aux))
		switch {
		case r.Status == wire.StatusOK && (mustMiss || !c.valueOK(o.key, r.Val)):
			return c.fail(o, "value %x", r.Val)
		case r.Status == wire.StatusNotFound && mustExist:
			return c.fail(o, "not found")
		}
	case opSet:
		if r.Status != wire.StatusOK {
			return c.fail(o, "status %s", r.Status)
		}
		if own {
			c.set(churnIndex(o.aux), true)
		}
	case opDel:
		want := wire.StatusNotFound
		if c.has(churnIndex(o.aux)) {
			want = wire.StatusOK
		}
		c.set(churnIndex(o.aux), false)
		if r.Status != want {
			return c.fail(o, "status %s, want %s", r.Status, want)
		}
	case opScan, opSnapScan:
		if r.Status != wire.StatusOK {
			return c.fail(o, "status %s", r.Status)
		}
		return c.scanOK(o, r.Entries)
	}
	return true
}

// scanOK checks a scan from o.key: ascending keys at or after the
// start, every value matching its key, and no permanent key skipped;
// a short scan must have reached the last permanent key.
func (c *wireConn) scanOK(o *op, es []wire.Entry) bool {
	stable := c.in.stable
	next := int(o.aux) // first permanent key at or after o.key
	for i, e := range es {
		if e.Key < o.key || i > 0 && e.Key <= es[i-1].Key {
			return c.fail(o, "entry %d key %#x out of order", i, e.Key)
		}
		if !c.valueOK(e.Key, e.Val) {
			return c.fail(o, "entry %#x value %x", e.Key, e.Val)
		}
		if next < len(stable) && stable[next] < e.Key {
			return c.fail(o, "permanent key %#x skipped", stable[next])
		}
		if wsClass(e.Key) == 0 {
			if next >= len(stable) || stable[next] != e.Key {
				return c.fail(o, "unknown permanent key %#x", e.Key)
			}
			next++
		}
	}
	if len(es) > scanLen || len(es) < scanLen && next < len(stable) {
		return c.fail(o, "%d entries", len(es))
	}
	return true
}

// runWindow sends one pipeline window, flushes it and reads every
// response. Each request's latency runs from the window's Flush to its
// decoded response. st is nil during warm-up.
func (c *wireConn) runWindow(win []op, st *segStats, widx int) error {
	base := c.seq + 1
	c.seq += uint32(len(win))
	sampled := c.log != nil && widx%spanEvery == 0
	tEnc := nanotime()
	var req wire.Request
	for j := range win {
		o := &win[j]
		req = wire.Request{Seq: base + uint32(j), Op: wireOps[o.kind], NS: c.ns, Key: o.key}
		switch o.kind {
		case opSet:
			c.valBuf = appendWireValue(c.valBuf[:0], o.key)
			req.Val = c.valBuf
		case opScan, opSnapScan:
			req.Limit = scanLen
		}
		if err := c.cl.Send(&req); err != nil {
			return fmt.Errorf("send: %w", err)
		}
		if sampled {
			c.frames = append(c.frames, frame{req: req})
			c.frames[len(c.frames)-1].req.Val = bytes.Clone(req.Val)
		}
	}
	tf := nanotime()
	if err := c.cl.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	tFlushed := nanotime()
	var rid uint64
	ri := 0 // index of the request span, whose end is known last
	if sampled {
		ri = len(c.log.spans)
		rid = c.log.add(0, uint64(c.id)<<48|uint64(widx), "request", tEnc, 0)
		c.log.add(rid, uint64(c.id)<<48|uint64(widx), "wire.encode", tEnc, tf)
		c.log.add(rid, uint64(c.id)<<48|uint64(widx), "wire.flush", tf, tFlushed)
	}
	var tLast int64
	for range win {
		r0 := nanotime()
		var read0 int64
		if c.tc != nil {
			read0 = c.tc.readNs
		}
		if err := c.cl.Recv(&c.resp); err != nil {
			return fmt.Errorf("recv: %w", err)
		}
		tLast = nanotime()
		idx := c.resp.Seq - base
		if idx >= uint32(len(win)) {
			return fmt.Errorf("response seq %d outside window [%d, %d)", c.resp.Seq, base, base+uint32(len(win)))
		}
		o := &win[idx]
		if st != nil {
			st.lat[wireClass[o.kind]].record(tLast - tf)
			st.ops++
			if o.kind == opSet {
				c.sets++
			}
		}
		c.attempted++
		c.check(o, &c.resp)
		if sampled {
			decode := (tLast - r0) - (c.tc.readNs - read0)
			c.log.add(rid, uint64(c.id)<<48|uint64(widx), "wire.decode", tLast-decode, tLast)
			c.recordResponse(int(idx) - len(win))
		}
	}
	if sampled {
		c.log.spans[ri].End = tLast
	}
	return nil
}

// recordResponse copies the current response into the frame recorded
// for its request; back counts from the end of the frames.
func (c *wireConn) recordResponse(back int) {
	r := c.resp
	r.Val = bytes.Clone(r.Val)
	r.Entries = append([]wire.Entry(nil), r.Entries...)
	for i := range r.Entries {
		r.Entries[i].Val = bytes.Clone(r.Entries[i].Val)
	}
	c.frames[len(c.frames)+back].resp = r
}

// runStream runs the measured stream, window by window, in segments.
func (c *wireConn) runStream() error {
	per := len(c.ops) / pipeline / segments
	for s := range c.segs {
		st := &c.segs[s]
		t0 := nanotime()
		for w := s * per; w < (s+1)*per; w++ {
			if err := c.runWindow(c.ops[w*pipeline:(w+1)*pipeline], st, w); err != nil {
				return err
			}
		}
		st.nsec = nanotime() - t0
	}
	return nil
}

type wireBench struct {
	in    *wsInput
	srv   *server.Server
	done  chan error
	conns [workers]*wireConn

	reshards              uint64
	before, after         skiptrie.MetricsSnapshot
	statsBefore, statsAft server.Stats
}

func prepareWireServe(seed uint64, ops int) (func(*tracer) (bench, error), func() replayStats) {
	in := genWireServe(seed, ops)
	mk := func(tr *tracer) (bench, error) { return startWire(in, tr) }
	return mk, func() replayStats { return replayWireServe(in) }
}

// startWire builds one wire-serve instance: server, listener, two
// connections, the ascending prefill and the warm-up.
func startWire(in *wsInput, tr *tracer) (*wireBench, error) {
	b := &wireBench{in: in, srv: server.New(server.Config{}), done: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("%w: listen: %v", errPrecondition, err)
	}
	go func() { b.done <- b.srv.Serve(ln) }()
	for i := range b.conns {
		nc, err := net.DialTimeout("tcp", ln.Addr().String(), dialTimeout)
		if err != nil {
			b.close()
			return nil, fmt.Errorf("%w: dial: %v", errPrecondition, err)
		}
		c := &wireConn{id: i, in: in, ns: []byte(wsNS), ops: in.ops[i], segs: make([]segStats, segments),
			present: make([]uint64, (len(in.keys)/(2*wsChurnMod)+63)/64)}
		if tr != nil {
			c.tc = &timedConn{Conn: nc}
			c.cl = wire.NewClient(c.tc)
		} else {
			c.cl = wire.NewClient(nc)
		}
		for j := range c.present {
			c.present[j] = ^uint64(0)
		}
		b.conns[i] = c
	}
	if err := b.prefill(); err != nil {
		b.close()
		return nil, err
	}
	if err := b.warmUp(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// prefill stores every key through connection 0 as pipelined SETs in
// ascending runs, so the server's StoreBatch takes its fast adjacent
// path. The runs rotate over the namespace's starting shards, one
// ascending run per shard in turn: a single ascending sweep would keep
// one shard at 100% of the traffic and the balancer would chase the
// insertion point with splits for the whole warm-up.
func (b *wireBench) prefill() error {
	c := b.conns[0]
	if _, err := c.cl.Stats(c.ns); err != nil { // creates the namespace
		return fmt.Errorf("%w: STATS: %v", errPrecondition, err)
	}
	n := b.srv.NamespaceShards(wsNS)
	if n < 1 || n&(n-1) != 0 {
		return fmt.Errorf("%w: namespace has %d shards", errPrecondition, n)
	}
	shift := 64 - bits.TrailingZeros(uint(n))
	parts := make([][]uint64, n)
	for _, k := range b.in.sorted {
		p := 0
		if shift < 64 {
			p = int(k >> shift)
		}
		parts[p] = append(parts[p], k)
	}
	ops := make([]op, 0, prefillWindow)
	for left := true; left; {
		left = false
		for p, keys := range parts {
			if len(keys) == 0 {
				continue
			}
			run := keys[:min(prefillWindow, len(keys))]
			parts[p], left = keys[len(run):], true
			ops = ops[:0]
			for _, k := range run {
				ops = append(ops, op{kind: opSet, key: k})
			}
			if err := c.runWindow(ops, nil, 1); err != nil {
				return fmt.Errorf("prefill: %w", err)
			}
		}
	}
	if c.failed > 0 {
		return fmt.Errorf("%w: prefill: %d requests failed", errPrecondition, c.failed)
	}
	return nil
}

// warmUp runs both connections' warm-up traffic until the namespace's
// shard count has not changed for quietSpan (at most warmCap), so no
// balancer migration is left over for the measured window.
func (b *wireBench) warmUp() error {
	var stop atomic.Bool
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i, c := range b.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			warm := c.in.warm[c.id]
			for w := 0; !stop.Load(); w++ {
				k := w % (len(warm) / pipeline)
				if errs[i] = c.runWindow(warm[k*pipeline:(k+1)*pipeline], nil, 1); errs[i] != nil {
					return
				}
			}
		}()
	}
	start := time.Now()
	last, changed := 0, start
	for time.Since(start) < warmCap {
		if n := b.srv.NamespaceShards(wsNS); n != last {
			last, changed = n, time.Now()
		}
		if time.Since(changed) >= quietSpan {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (b *wireBench) run(tr *tracer) error {
	m := b.srv.NamespaceMetrics(wsNS)
	if m == nil {
		return fmt.Errorf("%w: namespace %q missing after prefill", errPrecondition, wsNS)
	}
	b.before, b.statsBefore = m.Snapshot(), b.srv.Stats()
	for i, c := range b.conns {
		if tr != nil {
			c.log = &tr.logs[i]
		}
		c.attempted = 0 // count the window's requests; set-up failures stay counted
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i, c := range b.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.runStream()
		}()
	}
	wg.Wait()
	b.after, b.statsAft = m.Snapshot(), b.srv.Stats()
	d := b.after.Sub(b.before)
	b.reshards = d.Reshard.Splits + d.Reshard.Merges
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *wireBench) results() ([][]segStats, counts) {
	c := counts{reshards: b.reshards}
	segs := make([][]segStats, 0, workers)
	for _, cn := range b.conns {
		segs = append(segs, cn.segs)
		c.attempted += cn.attempted
		c.failed += cn.failed
	}
	return segs, c
}

// settle scans the whole namespace through connection 0 and checks it
// key by key: every permanent key present, every churn key present
// exactly when its owner last stored it, every value matching its key.
func (b *wireBench) settle() (int, error) {
	churn := make(map[uint64]uint64, len(b.in.keys)/wsChurnMod) // key -> rank
	for r, k := range b.in.keys {
		if wsClass(k) != 0 {
			churn[k] = uint64(r)
		}
	}
	want := len(b.in.stable)
	for _, c := range b.conns {
		for _, w := range c.present {
			want += bits.OnesCount64(w)
		}
	}
	c := b.conns[0]
	next, seen := 0, 0
	var from uint64
	for {
		es, err := c.cl.Scan(c.ns, from, wire.MaxScanLimit, false)
		if err != nil {
			return seen, fmt.Errorf("final scan: %w", err)
		}
		if len(es) == 0 {
			break
		}
		for _, e := range es {
			if e.Key < from {
				return seen, fmt.Errorf("final scan: key %#x out of order", e.Key)
			}
			if !c.valueOK(e.Key, e.Val) {
				return seen, fmt.Errorf("final scan: key %#x has value %x", e.Key, e.Val)
			}
			if cl := wsClass(e.Key); cl == 0 {
				if next >= len(b.in.stable) || b.in.stable[next] != e.Key {
					return seen, fmt.Errorf("final scan: permanent key %#x out of place", e.Key)
				}
				next++
			} else if r, ok := churn[e.Key]; !ok || !b.conns[cl-1].has(churnIndex(r)) {
				return seen, fmt.Errorf("final scan: churn key %#x present, want absent", e.Key)
			}
			seen++
		}
		from = es[len(es)-1].Key + 1
		if from == 0 {
			break
		}
	}
	if seen != want {
		return seen, fmt.Errorf("final scan: %d keys, want %d", seen, want)
	}
	return seen, nil
}

func (b *wireBench) layers(p *pass, tr *tracer) map[string]float64 {
	d := b.after.Sub(b.before)
	out := engineLayers(d)
	var engineNs time.Duration
	var engineN uint64
	for _, h := range d.Latency {
		engineNs += h.Sum
		engineN += h.Count
	}
	engineUs := 0.0
	if engineN > 0 {
		engineUs = engineNs.Seconds() * 1e6 / float64(engineN)
	}
	var frames []frame
	var sets, reqs uint64
	var pointNs, pointN int64
	for _, c := range b.conns {
		frames = append(frames, c.frames...)
		sets += c.sets
		for s := range c.segs {
			for _, cl := range []int{classGet, classWrite} {
				pointNs += c.segs[s].lat[cl].sum
				pointN += int64(c.segs[s].lat[cl].n)
			}
			for cl := range c.segs[s].lat {
				reqs += c.segs[s].lat[cl].n
			}
		}
	}
	codecAll := codecNs(frames, func(wire.Op) bool { return true })
	codecPoint := codecNs(frames, func(o wire.Op) bool { return o == wire.OpGet || o == wire.OpSet || o == wire.OpDel })
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	migrations := d.Reshard.Splits + d.Reshard.Merges
	out["server.engine_us_per_req"] = engineUs
	if pointN > 0 {
		out["server.residual_us_per_req"] = float64(pointNs)/float64(pointN)/1e3 - engineUs - codecPoint/1e3
	}
	out["server.batched_set_frac"] = ratio(b.statsAft.BatchedSets-b.statsBefore.BatchedSets, sets)
	out["server.busy_frac"] = ratio(b.statsAft.BusyRejects-b.statsBefore.BusyRejects, b.statsAft.Frames-b.statsBefore.Frames)
	out["reshard.events_in_window"] = float64(migrations)
	out["shard.migrations"] = float64(migrations)
	if migrations > 0 {
		out["shard.moved_keys_per_migration"] = ratio(d.Reshard.MovedKeys, migrations)
		out["shard.warm_copy_ms"] = d.Reshard.WarmCopyTime.Seconds() * 1e3 / float64(migrations)
		out["shard.resync_us"] = d.Reshard.ResyncTime.Seconds() * 1e6 / float64(migrations)
	}
	out["wire.codec_ns_per_req"] = codecAll
	out["wire.syscalls_per_req"] = p.syscalls / float64(max(reqs, 1))
	return out
}

// codecNs times encoding and decoding each selected recorded request
// and response (AppendRequest, DecodeRequest, AppendResponse,
// DecodeResponse) and returns the median over passes of the mean per
// request.
func codecNs(frames []frame, keep func(wire.Op) bool) float64 {
	var sel []*frame
	for i := range frames {
		if keep(frames[i].req.Op) {
			sel = append(sel, &frames[i])
		}
	}
	if len(sel) == 0 {
		return 0
	}
	var qbuf, rbuf []byte
	var req wire.Request
	var resp wire.Response
	var passes []float64
	for pass := 0; pass < 7; pass++ {
		t0 := nanotime()
		// Errors are dropped: every frame already made the round trip
		// through the server intact.
		for _, f := range sel {
			qbuf, _ = wire.AppendRequest(qbuf[:0], &f.req)
			_ = wire.DecodeRequest(qbuf[4:], &req)
			rbuf, _ = wire.AppendResponse(rbuf[:0], &f.resp)
			_ = wire.DecodeResponse(rbuf[4:], &resp)
		}
		passes = append(passes, float64(nanotime()-t0)/float64(len(sel)))
	}
	return median(passes)
}

func (b *wireBench) close() {
	for _, c := range b.conns {
		if c != nil {
			c.cl.Close()
		}
	}
	b.srv.Close()
	<-b.done
	b.srv = nil
}
