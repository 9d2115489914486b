// Command perfbench is the repository benchmark. It generates one of
// three workloads from a seed, runs it in a closed loop with two
// workers, checks every result, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics of a traced pass) followed by a
// one-line JSON result. See README.md for the workloads and metrics.
//
//	go build -o out/perfbench . && out/perfbench -workload read-ordered -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// bench is one built workload instance, ready to run its measured
// window once.
type bench interface {
	// run drives every worker through its stream. tr is nil on the
	// untraced pass.
	run(tr *tracer) error
	// results returns each worker's segments and the window's counts.
	results() (segs [][]segStats, c counts)
	// settle runs the quiescent checks after the window, closes any
	// snapshot pins and returns the resident key count.
	settle() (resident int, err error)
	// layers computes the workload's per-layer metrics from a traced
	// pass.
	layers(p *pass, tr *tracer) map[string]float64
	// close stops the structure's background work and drops every
	// reference the bench holds to it.
	close()
}

// workload binds a name to its input generator and builder.
type workload struct {
	name string
	// rate is the nominal key-ops per second that sizes a run: each
	// run does seconds*rate ops, a fixed count, so the same arguments
	// always do the same work. It is set so a window lasts about
	// -seconds on a 2-CPU host.
	rate float64
	// prepare generates the inputs for seed and returns a builder that
	// constructs and prefills a fresh instance from them (warming it
	// up where the workload needs it), traced when given a tracer, and
	// the workload's solo replay.
	prepare func(seed uint64, ops int) (build func(tr *tracer) (bench, error), replay func() replayStats)
}

var workloads = []workload{
	{name: "read-ordered", rate: 140_000, prepare: prepareReadOrdered},
	{name: "write-churn", rate: 95_000, prepare: prepareWriteChurn},
	{name: "wire-serve", rate: 115_000, prepare: prepareWireServe},
}

// watchdog bounds one run of the binary.
const watchdog = 170 * time.Second

// setups is how many times an untraced run builds its workload and
// measures a window; setup_s is the median build time.
const setups = 3

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	stdout, stderr := os.Stdout, os.Stderr
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "read-ordered, write-churn or wire-serve")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "nominal length of the measured window; fixes the op count")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced pass with per-layer metrics")
	outDir := fs.String("out", "out", "directory the traced pass writes its span file to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload read-ordered|write-churn|wire-serve, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	w := workloads[i]
	// The 2^20-key read-ordered heap is ~400 MB; a soft limit keeps
	// every run under ~1.5 GB on a 7 GB host.
	debug.SetMemoryLimit(1536 << 20)
	// A run that hangs or slows past any sane length ends here, named,
	// rather than being killed from outside.
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(stderr, "perfbench: %s: still running after %v; giving up\n", w.name, watchdog)
		os.Exit(1)
	})

	ops := int(float64(*seconds) * w.rate)
	var res result
	var err error
	if *trace == 0 {
		res, err = endToEnd(w, *seed, ops, stdout)
	} else {
		res, err = traced(w, *seed, ops, *outDir, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil { // a NaN or infinite metric
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d ops failed their result check\n", w.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pass is one measured window with what was sampled around it.
type pass struct {
	segs      [][]segStats
	c         counts
	wall      time.Duration
	rt        rtDelta
	syscalls  float64 // read- and write-class syscalls of the whole process
	resident  int
	heapBytes float64            // live heap the structure held after the window, pins closed
	layers    map[string]float64 // traced pass only
}

// measure runs b's window and its quiescent checks, then closes b. A
// failed check is counted as one failed op; only a broken precondition
// is an error.
func measure(b bench, tr *tracer) (*pass, error) {
	// Collect and hand every free page back to the OS now: otherwise the
	// background scavenger returns the earlier set-ups' memory during
	// the window, and its page releases slow the workers.
	debug.FreeOSMemory()
	rt0, io0 := sampleRuntime(), readProcIO()
	start := time.Now()
	err := b.run(tr)
	wall := time.Since(start)
	rt1, io1 := sampleRuntime(), readProcIO()
	if err != nil {
		b.close()
		return nil, err
	}
	segs, c := b.results()
	p := &pass{segs: segs, c: c, wall: wall, rt: rt1.sub(rt0), syscalls: io1 - io0}
	resident, cerr := b.settle()
	if cerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: quiescent check: %v\n", cerr)
		p.c.failed++
	}
	p.resident = resident
	if tr != nil {
		p.layers = b.layers(p, tr)
	}
	// The structure's heap is the live heap with it minus the live heap
	// once close has dropped it, so the generated inputs and the
	// recorders do not count.
	runtime.GC()
	with := sampleRuntime().liveBytes
	b.close()
	runtime.GC()
	p.heapBytes = with - sampleRuntime().liveBytes
	return p, nil
}

// build constructs one instance and times it.
func build(mk func(*tracer) (bench, error), tr *tracer) (bench, float64, error) {
	runtime.GC()
	t := time.Now()
	b, err := mk(tr)
	return b, time.Since(t).Seconds(), err
}

// endToEnd builds the workload setups times and measures a window on
// each build with the same third of the op budget. Structure shape and
// memory placement differ from build to build, and so does the host's
// load over time; pooling the builds' segments and taking medians
// keeps one unlucky build from moving the figures.
func endToEnd(w workload, seed uint64, ops int, out io.Writer) (result, error) {
	mk, _ := w.prepare(seed, ops/setups)
	var times, heap []float64
	var windows [][][]segStats
	var c counts
	var allocs float64
	var wall time.Duration
	for i := 0; i < setups; i++ {
		b, sec, err := build(mk, nil)
		if err != nil {
			return result{}, err
		}
		p, err := measure(b, nil)
		if err != nil {
			return result{}, err
		}
		times = append(times, sec)
		heap = append(heap, p.heapBytes/float64(max(p.resident, 1)))
		windows = append(windows, p.segs)
		c.attempted += p.c.attempted
		c.failed += p.c.failed
		c.reshards += p.c.reshards
		allocs += p.rt.allocObjects
		wall += p.wall
	}
	ws := summarize(windows...)
	m := map[string]metric{
		"setup_s":            {median(times), "s"},
		"throughput_ops_s":   {ws.throughput, "1/s"},
		"get_p50_us":         {ws.p50[classGet], "us"},
		"get_p99_us":         {ws.p99[classGet], "us"},
		"ordered_p50_us":     {ws.p50[classOrdered], "us"},
		"ordered_p99_us":     {ws.p99[classOrdered], "us"},
		"write_p50_us":       {ws.p50[classWrite], "us"},
		"write_p99_us":       {ws.p99[classWrite], "us"},
		"allocs_per_op":      {allocs / float64(max(ws.ops, 1)), "count"},
		"heap_bytes_per_key": {median(heap), "B"},
	}
	fmt.Fprintf(out, "workload %s seed %d: %d key-ops in %.2fs over %d builds, setups %.3fs\n",
		w.name, seed, ws.ops, wall.Seconds(), setups, times)
	fmt.Fprintf(out, "  segment throughput %.0f\n", ws.segThroughput)
	for i := range classNames {
		fmt.Fprintf(out, "  %-8s samples %d\n", classNames[i], ws.samples[i])
	}
	printMetrics(out, m)
	fmt.Fprintf(out, "  %-32s %.6g frac\n", "failed_frac", float64(c.failed)/float64(max(c.attempted, 1)))
	fmt.Fprintf(out, "  %-32s %d count\n", "reshard.events_in_window", c.reshards)
	return result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}, nil
}

// traced measures one untraced and one traced build with the same
// stream, then the solo replay, and reports the per-layer metrics.
func traced(w workload, seed uint64, ops int, outDir string, out io.Writer) (result, error) {
	mk, replay := w.prepare(seed, ops/setups)
	plain, _, err := build(mk, nil)
	if err != nil {
		return result{}, err
	}
	p0, err := measure(plain, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	b, _, err := build(mk, tr)
	if err != nil {
		return result{}, err
	}
	p1, err := measure(b, tr)
	if err != nil {
		return result{}, err
	}
	ws0, ws1 := summarize(p0.segs), summarize(p1.segs)
	layers := p1.layers
	rs := solo(replay)
	for k, v := range rs.metrics() {
		layers[k] = v
	}
	for k, v := range p1.rt.layers(ws1.ops) {
		layers[k] = v
	}
	if c := layers["dcss.attempts_per_update"]; c > 0 {
		layers["dcss.retry_frac"] = 1 - rs.soloAttempts()/c
	}
	layers["trace.overhead_frac"] = 1 - ws1.throughput/ws0.throughput
	m := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		m[name] = metric{layers[name], unit}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := tr.write(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "workload %s seed %d traced: %d key-ops in %.2fs (untraced %.2fs); spans in %s\n",
		w.name, seed, ws1.ops, p1.wall.Seconds(), p0.wall.Seconds(), path)
	printMetrics(out, m)
	failed := p0.c.failed + p1.c.failed
	attempted := p0.c.attempted + p1.c.attempted
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-32s %.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// counts are a window's op tallies.
type counts struct {
	attempted, failed uint64
	reshards          uint64 // balancer splits and merges that landed in the window
}

var errPrecondition = errors.New("broken precondition")
