package core

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// This file subscribes the continuous-metrics registry (package obs) to
// the runtime's observation stream (tracing.go). Busy time, span counts
// and span-duration histograms come from the charged spans, steals from
// the queue lane's steal instants and ring occupancy from the stream
// counters: the events the recorder keeps, so metric totals reconcile with
// the Breakdown bit for bit by construction. The counters the runtime
// already keeps in its own structs (cache, resilience, fault injector,
// streams) and the derived gauges (hit rate, bandwidth utilization, hop
// bandwidth, trace drops, elapsed) are read-through instruments: the
// registry reads their source whenever it is snapshotted, sampled or
// merged, so each has one source and nothing is ever synced.
//
// With Options.Metrics nil (the default) nothing subscribes and every hook
// collapses to one branch with zero allocations.

// Metric names. One namespace ("northup_"), stable across PRs: the
// committed perf baseline keys on these strings.
const (
	mBusyNS       = "northup_busy_ns_total"
	mSpans        = "northup_spans_total"
	mSpanNS       = "northup_span_ns"
	mMovedBytes   = "northup_moved_bytes_total"
	mBWUtil       = "northup_node_bw_utilization"
	mCacheHitRate = "northup_cache_hit_rate"
	mQueueDepth   = "northup_queue_depth"
	mQueuePops    = "northup_queue_pops_total"
	mQueueSteals  = "northup_queue_steals_total"
	mTraceDropped = "northup_trace_dropped_events"
	mElapsedNS    = "northup_elapsed_ns"

	mStreamMoves     = "northup_stream_moves_total"
	mStreamSubChunks = "northup_stream_subchunks_total"
	mStreamHopMoves  = "northup_stream_hop_moves_total"
	mStreamBytes     = "northup_stream_bytes_total"
	mStreamInflight  = "northup_stream_inflight"
	mStreamRing      = "northup_stream_ring_occupancy"
	mStreamHopBW     = "northup_stream_hop_bw"

	mSchedSavedBytes = "northup_sched_moved_bytes_saved_total"
	mSchedPlacements = "northup_sched_placements_total"
	mSchedTasks      = "northup_sched_tasks_total"
)

// spanNSBuckets are the fixed span-duration histogram bounds in
// nanoseconds: 1µs to 10s in decades. Fixed bounds keep cluster rollup
// associative (obs.Histogram's merge contract).
var spanNSBuckets = []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// runtimeMetrics is the registry's subscription: the handles of the
// event-driven instruments, resolved once at construction or, per node,
// lazily on first use and memoised.
type runtimeMetrics struct {
	rt  *Runtime
	reg *obs.Registry

	// Per-category instruments, indexed by trace.Category.
	busy   []*obs.Counter
	spans  []*obs.Counter
	spanNS []*obs.Histogram

	// Per-node bytes moved in; each node's bandwidth-utilization gauge is
	// registered alongside and reads the counter through.
	movedBytes map[int]*obs.Counter

	// Streamed-move instruments: staging-ring occupancy from the ring
	// counters, and which nodes' hop-bandwidth gauges are registered.
	streamRing  map[int]*obs.Gauge
	streamHopBW map[int]bool

	// Scheduler instruments: per-node queue-depth gauges (lazy) plus pop
	// and steal totals. The gauge publishes the sum over live
	// QueueDepthSlots, so concurrent schedulers on one node compose
	// additively instead of overwriting each other's absolute depth.
	queueDepth  map[int]*obs.Gauge
	depthTotal  map[int]int64 // node -> sum of live slot depths
	queuePops   *obs.Counter
	queueSteals *obs.Counter

	// Task-graph placement instruments (internal/taskgraph): per-policy
	// decision counts, the task total, and the per-node bytes affinity
	// placement avoided re-fetching (lazy, like movedBytes).
	schedPlace map[string]*obs.Counter
	schedSaved map[int]*obs.Counter
	schedTasks *obs.Counter
}

// newRuntimeMetrics registers the runtime's instruments in reg and returns
// the subscription that drives them.
func newRuntimeMetrics(rt *Runtime, reg *obs.Registry) *runtimeMetrics {
	m := &runtimeMetrics{rt: rt, reg: reg,
		busy:        make([]*obs.Counter, len(trace.Categories)),
		spans:       make([]*obs.Counter, len(trace.Categories)),
		spanNS:      make([]*obs.Histogram, len(trace.Categories)),
		movedBytes:  map[int]*obs.Counter{},
		streamRing:  map[int]*obs.Gauge{},
		streamHopBW: map[int]bool{},
		queueDepth:  map[int]*obs.Gauge{},
		depthTotal:  map[int]int64{},
		schedPlace:  map[string]*obs.Counter{},
		schedSaved:  map[int]*obs.Counter{},
	}
	for _, c := range trace.Categories {
		lbl := obs.L("cat", c.String())
		m.busy[c] = reg.Counter(mBusyNS, "virtual busy time per execution category", lbl)
		m.spans[c] = reg.Counter(mSpans, "completed spans per execution category", lbl)
		m.spanNS[c] = reg.Histogram(mSpanNS, "span duration distribution", spanNSBuckets, lbl)
	}
	m.queuePops = reg.Counter(mQueuePops, "local deque pops across leaf schedulers")
	m.queueSteals = reg.Counter(mQueueSteals, "work-steal operations across leaf schedulers")
	m.schedTasks = reg.Counter(mSchedTasks, "tasks placed by the task-graph scheduler")

	load := func(src *int64) func() int64 { return func() int64 { return *src } }
	cs, res, ss, inj := rt.bd.Cache(), &rt.res, &rt.streamStats, rt.opts.Faults
	for _, c := range []struct {
		name, help string
		read       func() int64
	}{
		{"northup_cache_hits_total", "staging-cache fetches served from a resident buffer", load(&cs.Hits)},
		{"northup_cache_misses_total", "staging-cache fetches that crossed the edge", load(&cs.Misses)},
		{"northup_cache_evictions_total", "staging-cache entries evicted", load(&cs.Evictions)},
		{"northup_cache_prefetches_total", "lookahead fetches issued", load(&cs.Prefetches)},
		{"northup_cache_prefetch_hits_total", "prefetched entries that served a demand fetch", load(&cs.PrefetchHits)},
		{"northup_cache_bypasses_total", "cached fetches that fell back to a plain move", load(&cs.Bypasses)},
		{"northup_cache_invalidations_total", "entries dropped after their source was overwritten", load(&cs.Invalidations)},
		{"northup_cache_prefetch_errors_total", "lookahead fills that failed after exhausting retries", load(&cs.PrefetchErrors)},
		{"northup_cache_hit_bytes_total", "bytes served from resident buffers", load(&cs.HitBytes)},
		{"northup_cache_miss_bytes_total", "bytes fetched across the edge", load(&cs.MissBytes)},

		{"northup_faults_total", "transient failures observed before retrying", load(&res.Faults)},
		{"northup_retries_total", "re-attempts made", load(&res.Retries)},
		{"northup_timeouts_total", "operations that exceeded the per-op deadline", load(&res.Timeouts)},
		{"northup_failovers_total", "leaf tasks re-routed to a sibling processor", load(&res.Failovers)},
		{"northup_gave_up_total", "operations that exhausted retries", load(&res.GaveUp)},

		{"northup_fault_transfer_fails_total", "transfers failed outright by the injector",
			func() int64 { return inj.Stats().TransferFails }},
		{"northup_fault_transfer_delays_total", "transfers stalled by the injector",
			func() int64 { return inj.Stats().TransferDelays }},
		{"northup_fault_alloc_fails_total", "allocations transiently refused by the injector",
			func() int64 { return inj.Stats().AllocFails }},
		{"northup_fault_offline_rejects_total", "operations refused inside an outage window",
			func() int64 { return inj.Stats().OfflineRejects }},

		{mStreamMoves, "streamed moves issued", load(&ss.Streams)},
		{mStreamSubChunks, "sub-chunks across all streamed moves", load(&ss.SubChunks)},
		{mStreamHopMoves, "per-hop sub-chunk moves driven by the stream engine", load(&ss.HopMoves)},
		{mStreamBytes, "payload bytes delivered by streamed moves", load(&ss.Bytes)},
	} {
		reg.CounterFunc(c.name, c.help, c.read)
	}

	reg.GaugeFunc(mCacheHitRate, "hits / (hits + misses)", func() float64 { return cs.HitRate() })
	reg.GaugeFunc(mStreamInflight, "sub-chunks currently in the pipe",
		func() float64 { return float64(rt.streamInflight) })
	reg.GaugeFunc(mTraceDropped, "events the bounded trace ring dropped", func() float64 {
		if rt.opts.Trace == nil {
			return 0
		}
		return float64(rt.opts.Trace.Dropped())
	})
	// Every read is a sync now; the help text stays so exports keep their bytes.
	reg.GaugeFunc(mElapsedNS, "virtual time at the last metrics sync",
		func() float64 { return float64(rt.engine.Now()) })
	return m
}

// nodeLabel renders a node-ID label. Node counts are small and stable, so
// the handle maps memoise away the strconv after first use.
func nodeLabel(node int) obs.Label { return obs.L("node", strconv.Itoa(node)) }

// Span implements Observer: a charged span adds the identical duration
// the Breakdown received to the busy counter, plus span count, duration
// histogram and — for data movement — per-node byte totals. A node's
// first stream hop registers its hop-bandwidth gauge.
func (m *runtimeMetrics) Span(_ *sim.Proc, lane trace.Lane, cat trace.Category, _ string, start, end sim.Time, value int64) {
	if cat < 0 || int(cat) >= len(m.busy) {
		if lane.Track == trace.TrackStream {
			m.noteHop(lane.Node)
		}
		return
	}
	d := int64(end - start)
	m.busy[cat].Add(d)
	m.spans[cat].Inc()
	m.spanNS[cat].Observe(d)
	if (cat == trace.Transfer || cat == trace.IO) && value > 0 && lane.Node >= 0 {
		m.movedInto(lane.Node).Add(value)
	}
}

// Instant implements Observer: steal instants on a queue lane count steals.
func (m *runtimeMetrics) Instant(lane trace.Lane, name string, _ sim.Time, _ int64) {
	if name == instantSteal && lane.Track == trace.TrackQueue {
		m.queueSteals.Inc()
	}
}

// Counter implements Observer: ring counters set the node's staging-ring
// occupancy gauge.
func (m *runtimeMetrics) Counter(lane trace.Lane, name string, _ sim.Time, value int64) {
	if name == ctrStreamRing {
		m.ringGauge(lane.Node).Set(float64(value))
	}
}

// movedInto resolves the node's moved-bytes counter, registering with it
// the bandwidth-utilization gauge: cumulative bytes into the node over
// what its device could nominally have read in the elapsed time. A coarse
// full-run average, like the trace summary's achieved-vs-nominal column.
func (m *runtimeMetrics) movedInto(node int) *obs.Counter {
	c, ok := m.movedBytes[node]
	if ok {
		return c
	}
	c = m.reg.Counter(mMovedBytes, "bytes moved into each node", nodeLabel(node))
	m.movedBytes[node] = c
	var bw float64 // nominal read bandwidth, bytes/s
	if mem := m.rt.tree.Node(node).Mem; mem != nil {
		bw = mem.Profile().ReadBW
	}
	m.reg.GaugeFunc(mBWUtil, "moved bytes over nominal read bandwidth x elapsed", func() float64 {
		now := m.rt.engine.Now()
		if now <= 0 || bw <= 0 {
			return 0
		}
		sec := float64(now) / 1e9
		return float64(c.Value()) / (sec * bw)
	}, nodeLabel(node))
	return c
}

// noteHop registers, on a node's first streamed hop, the gauge reading
// the achieved hop bandwidth into it from the runtime's hop aggregate.
func (m *runtimeMetrics) noteHop(node int) {
	if m.streamHopBW[node] {
		return
	}
	m.streamHopBW[node] = true
	agg := m.rt.streamHops[node]
	m.reg.GaugeFunc(mStreamHopBW, "achieved streamed-hop bandwidth into each node, bytes/s", func() float64 {
		if agg.busy <= 0 {
			return 0
		}
		return float64(agg.bytes) / (float64(agg.busy) / 1e9)
	}, nodeLabel(node))
}

// ringGauge resolves (and memoises) the node's staging-ring gauge.
func (m *runtimeMetrics) ringGauge(node int) *obs.Gauge {
	g, ok := m.streamRing[node]
	if !ok {
		g = m.reg.Gauge(mStreamRing, "staging-ring occupancy per intermediate node", nodeLabel(node))
		m.streamRing[node] = g
	}
	return g
}

// metrics returns the registry's subscription, nil when metrics are off.
// The registry-only scheduler notes (pops, placements, queue depth) reach
// it here; everything else arrives through Observe.
func (rt *Runtime) metrics() *runtimeMetrics {
	for _, o := range rt.observers {
		if m, ok := o.(*runtimeMetrics); ok {
			return m
		}
	}
	return nil
}

// Metrics returns the runtime's registry, nil when metrics are off.
func (rt *Runtime) Metrics() *obs.Registry { return rt.opts.Metrics }

// MetricsSampler returns the attached sampler (nil without one).
func (rt *Runtime) MetricsSampler() *obs.Sampler { return rt.opts.Sampler }

// maybeSample advances the sampler when a tick boundary has passed. The
// sampled gauges read their sources, so the series hold the values at
// now. One comparison when no sampler is due.
func (rt *Runtime) maybeSample(now sim.Time) {
	if s := rt.opts.Sampler; s.Due(now) {
		s.Observe(now)
	}
}

// SyncMetrics does nothing: every registry instrument is either driven by
// the observation stream or reads its source whenever the registry is
// snapshotted, sampled or merged.
//
// Deprecated: exports need no sync; the method stays for existing callers.
func (rt *Runtime) SyncMetrics() {}

// QueueDepthSlot is one scheduler's contribution to a node's queue-depth
// gauge. The gauge always publishes the sum of all live slots on the node,
// which is what makes the metric correct when several jobs run leaf
// schedulers on the same node concurrently: an absolute-set gauge would
// let the last writer win, so one job finishing could freeze another
// job's stale depth into the gauge forever.
//
// A scheduler obtains a slot at setup (NewQueueDepthSlot), calls Set with
// its own total on every queue event, and must Close the slot when it
// winds down so its contribution returns to zero.
type QueueDepthSlot struct {
	m      *runtimeMetrics // nil when metrics are off
	node   int
	depth  int64
	closed bool
}

// NewQueueDepthSlot registers a scheduler's depth contribution for node.
// Usable (as a no-op) even when metrics are off.
func (rt *Runtime) NewQueueDepthSlot(node int) *QueueDepthSlot {
	return &QueueDepthSlot{m: rt.metrics(), node: node}
}

// Set publishes the slot's current depth; the node gauge moves by the
// delta from the slot's previous value.
func (s *QueueDepthSlot) Set(depth int64) {
	if s == nil || s.closed || s.m == nil {
		return
	}
	m := s.m
	m.depthTotal[s.node] += depth - s.depth
	s.depth = depth
	g, ok := m.queueDepth[s.node]
	if !ok {
		g = m.reg.Gauge(mQueueDepth, "work-queue depth per leaf scheduler", nodeLabel(s.node))
		m.queueDepth[s.node] = g
	}
	g.Set(float64(m.depthTotal[s.node]))
	m.rt.maybeSample(m.rt.engine.Now())
}

// Close withdraws the slot's contribution. Further Sets are no-ops.
func (s *QueueDepthSlot) Close() {
	if s == nil || s.closed {
		return
	}
	s.Set(0)
	s.closed = true
}

// WatchDeques is the standard telemetry of a leaf scheduler's deques. It
// attaches them to node's queue monitors, so subtree load is observable as
// Listing 1's work_queue links intend, and, when anything subscribes,
// wires their hooks: each steal is an instant on c's queue lane naming the
// victim queue (the registry counts steals from it), each pop feeds the
// registry's pop total, and every push, pop and steal republishes the
// deques' total length through depth. The caller owns depth (it may also
// Set it at its own barriers) and calls detach when the deques retire.
func WatchDeques[T any](c *Ctx, node *topo.Node, depth *QueueDepthSlot, queues []*sched.Deque[T]) (detach func()) {
	monitors := make([]sched.Monitor, len(queues))
	for i, q := range queues {
		monitors[i] = q
	}
	detach = node.AttachQueues(monitors...)
	if !c.rt.observed() {
		return detach
	}
	m := c.rt.metrics()
	noteDepth := func() { depth.Set(int64(sched.TotalLen(queues))) }
	for i, q := range queues {
		qi := int64(i)
		q.OnPush = noteDepth
		q.OnPop = func() {
			if m != nil {
				m.queuePops.Inc()
			}
			noteDepth()
		}
		q.OnSteal = func() {
			c.TraceInstant(trace.TrackQueue, instantSteal, qi)
			noteDepth()
		}
	}
	return detach
}

// NoteSchedPlacement records one task-graph placement decision: policy is
// how the task reached its worker ("queue", "steal", "affinity"), node is
// the staging node the scheduler placed against, and savedBytes is how many
// input bytes the decision found already resident (so no edge crossing was
// needed). No-op without metrics.
func (rt *Runtime) NoteSchedPlacement(policy string, node int, savedBytes int64) {
	m := rt.metrics()
	if m == nil {
		return
	}
	m.schedTasks.Inc()
	c, ok := m.schedPlace[policy]
	if !ok {
		c = m.reg.Counter(mSchedPlacements, "task placements per decision policy", obs.L("policy", policy))
		m.schedPlace[policy] = c
	}
	c.Inc()
	if savedBytes > 0 && node >= 0 {
		s, ok := m.schedSaved[node]
		if !ok {
			s = m.reg.Counter(mSchedSavedBytes, "bytes affinity placement served from residency instead of moving", nodeLabel(node))
			m.schedSaved[node] = s
		}
		s.Add(savedBytes)
	}
}
