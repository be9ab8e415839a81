package core

import (
	"slices"

	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the runtime's one observation stream. Every busy-time
// charge goes through chargeSpan, which adds the interval to the Breakdown
// and publishes the same interval as a span event; structural spans
// (Ctx.Task, streamed-move hops), instants and counter samples are
// published the same way. The subscribers — the event recorder
// (Options.Trace), the metrics registry (Options.Metrics, metrics.go),
// profile feeds and the serve tier's journeys — all read this one list,
// so every view agrees with the Breakdown bit for bit by construction.
// With no subscriber each emission collapses to one length check and the
// runtime behaves (and allocates) exactly as an unobserved one; the tests
// guard both properties.

// laneRuntime is the pseudo-lane of node-less bookkeeping.
var laneRuntime = trace.Lane{Node: trace.NoNode, Track: trace.TrackRuntime}

// Static span names. Emitters must not build names dynamically on the hot
// path — details ride in the event's Value field instead.
const (
	spanBookkeeping = "bookkeeping"
	spanBackoff     = "retry-backoff"
	spanMove        = "move"
	spanMove2D      = "move2d"
	spanTranspose   = "transpose"
	spanAlloc       = "alloc"
	spanKernel      = "kernel"
	spanCPU         = "cpu"
	spanPIM         = "pim"
	spanFPGA        = "fpga"
	spanWorkerTask  = "task"

	// Streamed-move telemetry (stream.go). The hop span is structural
	// (category None): the MoveData underneath it owns the charge.
	spanStreamHop     = "stream-hop"
	ctrStreamInflight = "stream-inflight"
	ctrStreamRing     = "ring-occupancy"

	// instantSteal marks one work steal on a queue lane (WatchDeques).
	instantSteal = "steal"
)

// TraceRecorder returns the runtime's event recorder, nil when tracing is
// off.
func (rt *Runtime) TraceRecorder() *trace.Recorder { return rt.opts.Trace }

// Observer subscribes to the runtime's observation stream, which delivers
// every event once, in emission order:
//   - Span: a busy-time charge (cat is a real category) or a structural
//     span (cat is trace.None: Ctx.Task and streamed-move hops). p is the
//     proc that made it, nil for spans made from engine callbacks;
//   - Instant: a point event (cache activity, faults, steals, placements);
//   - Counter: a sampled value (queue depth, stream in-flight, ring
//     occupancy).
//
// Observers run on the simulation goroutine, must not block and must not
// touch the engine: they observe, so a subscribed run keeps the schedule
// of an unobserved one. The arguments are passed unpacked, not as a
// trace.Event, so the fan-out copies no event struct per subscriber.
type Observer interface {
	Span(p *sim.Proc, lane trace.Lane, cat trace.Category, name string, start, end sim.Time, value int64)
	Instant(lane trace.Lane, name string, t sim.Time, value int64)
	Counter(lane trace.Lane, name string, t sim.Time, value int64)
}

// Subscribe adds o to the runtime's subscriber list and returns the
// function that removes it. o must be comparable (a pointer, typically).
// Options.Trace and Options.Metrics are subscribed by NewRuntime, in that
// order.
func (rt *Runtime) Subscribe(o Observer) (remove func()) {
	rt.observers = append(rt.observers, o)
	return func() {
		for i, x := range rt.observers {
			if x == o {
				rt.observers = slices.Delete(rt.observers, i, i+1)
				return
			}
		}
	}
}

// recorderObserver is the event recorder's subscription: Instant and
// Counter are the recorder's own, spans drop the proc.
type recorderObserver struct{ *trace.Recorder }

func (o recorderObserver) Span(_ *sim.Proc, lane trace.Lane, cat trace.Category, name string, start, end sim.Time, value int64) {
	o.Recorder.Span(lane, cat, name, start, end, value)
}

// observed reports whether anything subscribes, for emitters with set-up
// cost (Ctx.Task's timing, WatchDeques' hooks) to skip it when nothing
// would see the events.
func (rt *Runtime) observed() bool { return len(rt.observers) > 0 }

// emitSpan publishes a span made by proc p.
func (rt *Runtime) emitSpan(p *sim.Proc, lane trace.Lane, cat trace.Category, name string, start, end sim.Time, value int64) {
	for _, o := range rt.observers {
		o.Span(p, lane, cat, name, start, end, value)
	}
}

// emitInstant publishes a point event (steal, eviction, fault).
func (rt *Runtime) emitInstant(lane trace.Lane, name string, t sim.Time, value int64) {
	for _, o := range rt.observers {
		o.Instant(lane, name, t, value)
	}
}

// emitCounter publishes a sampled value (queue depth, ring occupancy).
func (rt *Runtime) emitCounter(lane trace.Lane, name string, t sim.Time, value int64) {
	for _, o := range rt.observers {
		o.Counter(lane, name, t, value)
	}
}

// chargeSpan is the single charge point: d = end-start goes to the
// Breakdown category, and the same interval is published as a span made
// by p (nil from engine callbacks and charge-only unit tests). A due
// metrics sample follows the publication, so the sampled gauges include
// this charge.
func (rt *Runtime) chargeSpan(p *sim.Proc, lane trace.Lane, cat trace.Category, name string, start, end sim.Time, value int64) {
	rt.bd.Add(cat, end-start)
	rt.emitSpan(p, lane, cat, name, start, end, value)
	rt.maybeSample(end)
}

// moveLane places a move span: I/O lands on the storage endpoint's lane,
// memory-to-memory transfers on the destination node's transfer lane.
func moveLane(cat trace.Category, dst, src *Buffer) trace.Lane {
	if cat == trace.IO && src.file != nil && dst.file == nil {
		return trace.Lane{Node: src.node.ID, Track: trace.TrackIO}
	}
	if cat == trace.IO {
		return trace.Lane{Node: dst.node.ID, Track: trace.TrackIO}
	}
	return trace.Lane{Node: dst.node.ID, Track: trace.TrackXfer}
}

// cacheLane is the staging-cache activity lane of a node.
func cacheLane(node int) trace.Lane {
	return trace.Lane{Node: node, Track: trace.TrackCache}
}

// Task runs fn as a named application-level unit of work and emits a
// structural span for it on the current node's task lane (category None:
// the compute and transfer spans inside it charge busy time; the task span
// only gives the timeline its application-level shape). value labels the
// task's size — chunk bytes, rows, elements — and is what profile-guided
// scheduling observes. Without subscribers the only cost is one branch.
func (c *Ctx) Task(name string, value int64, fn func(*Ctx) error) error {
	if !c.rt.observed() {
		return fn(c)
	}
	start := c.p.Now()
	err := fn(c)
	c.rt.emitSpan(c.p, trace.Lane{Node: c.node.ID, Track: trace.TrackTask}, trace.None,
		name, start, c.p.Now(), value)
	return err
}

// TraceInstant publishes a point event on the current node's lane of the
// given track. It is a no-op without subscribers.
func (c *Ctx) TraceInstant(track, name string, value int64) {
	c.rt.emitInstant(trace.Lane{Node: c.node.ID, Track: track}, name, c.p.Now(), value)
}

// TraceCounter publishes a sampled value on the current node's lane of the
// given track (queue depths, occupancy). It is a no-op without
// subscribers.
func (c *Ctx) TraceCounter(track, name string, value int64) {
	c.rt.emitCounter(trace.Lane{Node: c.node.ID, Track: track}, name, c.p.Now(), value)
}
