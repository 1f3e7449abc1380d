package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ftdag/internal/graph"
	"ftdag/internal/trace"
)

// spanCapacity bounds the traced run's in-memory span ring; the newest spans
// are kept and written out at exit.
const spanCapacity = 1 << 15

// layerClock accumulates the traced run's time and bytes at the kernel and
// block-store boundaries, folded in from each graph or job once it is done,
// and holds the run's spans.
type layerClock struct {
	mu     sync.Mutex
	totals clockTotals
	spans  *trace.Spans
}

type clockTotals struct {
	kernel, read, write   time.Duration
	readBytes, writeBytes int64
}

func newLayerClock() *layerClock {
	return &layerClock{spans: trace.NewSpans("perfbench", spanCapacity)}
}

// taskSpanEvery samples the graphs or jobs whose kernel and block spans are
// recorded; every one is timed. Recording a span per task of every graph
// would cost more than the block reads it describes.
const taskSpanEvery = 4

// fold adds a finished graph's or job's counters to the run's totals.
func (lc *layerClock) fold(s *tracedSpec) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	t := &lc.totals
	t.kernel += time.Duration(s.kernelNS.Load())
	t.read += time.Duration(s.readNS.Load())
	t.write += time.Duration(s.writeNS.Load())
	t.readBytes += s.readBytes.Load()
	t.writeBytes += s.writeBytes.Load()
}

// root opens a trace for one graph or job and returns its context; the root
// span itself is emitted by endRoot once its duration is known.
func (lc *layerClock) root() trace.SpanContext {
	return trace.SpanContext{Trace: trace.NewTraceID(), Span: lc.spans.NextID()}
}

// endRoot emits the root span of a graph or job.
func (lc *layerClock) endRoot(ctx trace.SpanContext, name, note string, job int64, start time.Time, d time.Duration) {
	lc.spans.Emit(trace.Span{
		Trace: ctx.Trace, ID: ctx.Span, Name: name, Note: note,
		Start: start.UnixMicro(), Dur: d.Microseconds(), Job: job, Task: -1,
	})
}

// child emits a span under parent.
func (lc *layerClock) child(parent trace.SpanContext, name string, job, task int64, start time.Time, d time.Duration) {
	lc.spans.Emit(trace.Span{
		Trace: parent.Trace, ID: lc.spans.NextID(), Parent: parent.Span, Name: name,
		Start: start.UnixMicro(), Dur: d.Microseconds(), Job: job, Task: task,
	})
}

// writePerfetto writes the retained spans as a Perfetto/Chrome trace file
// and returns its path.
func (lc *layerClock) writePerfetto(dir, workload string, seed int64) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("perfbench-%s-seed%d.trace.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := trace.MergeSpans(lc.spans.Snapshot()).WriteJSON(f); err != nil {
		_ = f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, f.Close()
}

// tracedSpec decorates one graph or job: it times every Compute and,
// through tracedCtx, every block read and write the compute makes. It
// changes nothing the executor sees besides the wrapped context. Its
// counters belong to this graph alone, so the workers of different jobs do
// not contend on them.
type tracedSpec struct {
	graph.Spec
	lc   *layerClock
	root trace.SpanContext
	job  int64

	kernelNS   atomic.Int64 // Compute time minus the block reads and writes it made
	readNS     atomic.Int64
	writeNS    atomic.Int64
	readBytes  atomic.Int64
	writeBytes atomic.Int64
}

func newTracedSpec(spec graph.Spec, lc *layerClock, root trace.SpanContext, job int64) *tracedSpec {
	return &tracedSpec{Spec: spec, lc: lc, root: root, job: job}
}

// epoch anchors mono: time.Since on a reading that carries the monotonic
// clock reads the clock once, time.Now twice, and the decorator reads it
// around every block access.
var epoch = time.Now()

func mono() time.Duration { return time.Since(epoch) }

func (s *tracedSpec) Compute(ctx graph.Context, key graph.Key) error {
	c := tracedCtx{Context: ctx, lc: s.lc, job: s.job, key: key, spans: s.job%taskSpanEvery == 0}
	if c.spans {
		c.self = trace.SpanContext{Trace: s.root.Trace, Span: s.lc.spans.NextID()}
	}
	start := mono()
	err := s.Spec.Compute(&c, key)
	d := mono() - start
	s.kernelNS.Add(int64(d) - c.readNS - c.writeNS)
	s.readNS.Add(c.readNS)
	s.writeNS.Add(c.writeNS)
	s.readBytes.Add(c.readBytes)
	s.writeBytes.Add(c.writeBytes)
	if c.spans {
		s.lc.spans.Emit(trace.Span{
			Trace: s.root.Trace, ID: c.self.Span, Parent: s.root.Span, Name: "kernel",
			Start: epoch.Add(start).UnixMicro(), Dur: d.Microseconds(), Job: s.job, Task: key,
		})
	}
	return err
}

// tracedCtx times the block-store accesses of one Compute call. A Compute
// runs on one goroutine, so its fields need no synchronization.
type tracedCtx struct {
	graph.Context
	lc                    *layerClock
	spans                 bool // record this task's spans
	self                  trace.SpanContext
	job                   int64
	key                   graph.Key
	readNS, writeNS       int64
	readBytes, writeBytes int64
}

// A block access shorter than the spans' microsecond resolution is counted
// but gets no span of its own: it would render as an instant and cost more
// to record than to make.
const minSpan = time.Microsecond

func (c *tracedCtx) ReadPred(pred graph.Key) ([]float64, error) {
	start := mono()
	data, err := c.Context.ReadPred(pred)
	d := mono() - start
	c.readNS += int64(d)
	c.readBytes += int64(8 * len(data))
	if c.spans && d >= minSpan {
		c.lc.child(c.self, "block-read", c.job, c.key, epoch.Add(start), d)
	}
	return data, err
}

func (c *tracedCtx) Write(data []float64) {
	start := mono()
	c.Context.Write(data)
	d := mono() - start
	c.writeNS += int64(d)
	c.writeBytes += int64(8 * len(data))
	if c.spans && d >= minSpan {
		c.lc.child(c.self, "block-write", c.job, c.key, epoch.Add(start), d)
	}
}
