package core

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// This file wires the continuous-metrics registry (package obs) into the
// runtime. The design mirrors tracing.go's single-charge-point rule: busy
// time, span counts and span-duration histograms are fed from chargeSpan —
// the same call that feeds the Breakdown — so metric totals reconcile with
// Breakdown totals bit-for-bit by construction. Sources that mutate state
// at scattered sites (cache stats, resilience counters, the fault
// injector, the trace ring's drop count) are mirrored into the registry by
// syncMetrics, which raises each counter to its source's cumulative total;
// the sync runs at every sampler tick and at the end of Run, so exports and
// sampled series always agree with the runtime's own accounting.
//
// With Options.Metrics nil (the default) rt.met is nil and every hook
// collapses to one branch with zero allocations, the same contract the
// trace layer keeps.

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

// runtimeMetrics holds the registry handles the runtime's hot paths write
// through. All handles are resolved once at construction; per-node handles
// are resolved lazily on first use and memoised.
type runtimeMetrics struct {
	reg     *obs.Registry
	sampler *obs.Sampler

	// Per-category instruments, indexed by trace.Category.
	busy   []*obs.Counter
	spans  []*obs.Counter
	spanNS []*obs.Histogram

	// Per-node traffic, lazily resolved: moved bytes and the derived
	// bandwidth-utilization gauge (cumulative bytes / elapsed × nominal BW).
	movedBytes map[int]*obs.Counter
	bwUtil     map[int]*obs.Gauge
	nominalBW  map[int]float64 // node -> nominal read bandwidth, bytes/s

	// Cache counters, synced from the Breakdown's CacheStats.
	cacheHits, cacheMisses, cacheEvictions, cachePrefetches,
	cachePrefetchHits, cacheBypasses, cacheInvalidations,
	cachePrefetchErrors, cacheHitBytes, cacheMissBytes *obs.Counter
	cacheHitRate *obs.Gauge

	// Streamed-move instruments (stream.go): scalar totals synced from
	// StreamStats, the live in-flight gauge, and lazy per-node gauges for
	// staging-ring occupancy and per-hop achieved bandwidth.
	streamMoves, streamSubChunks, streamHopMoves, streamBytes *obs.Counter
	streamInflight                                            *obs.Gauge
	streamRing, streamHopBW                                   map[int]*obs.Gauge

	// Resilience counters, synced from ResilienceStats.
	resFaults, resRetries, resTimeouts, resFailovers, resGaveUp *obs.Counter

	// Injector counters, synced from fault.Injector.Stats.
	faultTransferFails, faultTransferDelays, faultAllocFails,
	faultOfflineRejects *obs.Counter

	// Scheduler instruments: per-node queue-depth gauges (lazy) plus pop
	// and steal totals, driven by the Note helpers from leaf schedulers.
	// The gauge publishes the sum over live QueueDepthSlots, so concurrent
	// schedulers on one node compose additively instead of overwriting
	// each other's absolute depth.
	queueDepth map[int]*obs.Gauge
	depthTotal map[int]int64 // node -> sum of live slot depths
	queuePops  *obs.Counter
	queueSteal *obs.Counter

	// Task-graph placement instruments (internal/taskgraph): per-policy
	// decision counts, the task total, and the per-node bytes affinity
	// placement avoided re-fetching (lazy, like movedBytes).
	schedPlace map[string]*obs.Counter
	schedSaved map[int]*obs.Counter
	schedTasks *obs.Counter

	traceDropped *obs.Gauge
	elapsed      *obs.Gauge
}

// newRuntimeMetrics registers the runtime's instruments in reg and returns
// the handle set. sampler may be nil (no time series).
func newRuntimeMetrics(rt *Runtime, reg *obs.Registry, sampler *obs.Sampler) *runtimeMetrics {
	m := &runtimeMetrics{reg: reg, sampler: sampler,
		busy:        make([]*obs.Counter, len(trace.Categories)),
		spans:       make([]*obs.Counter, len(trace.Categories)),
		spanNS:      make([]*obs.Histogram, len(trace.Categories)),
		movedBytes:  map[int]*obs.Counter{},
		bwUtil:      map[int]*obs.Gauge{},
		nominalBW:   map[int]float64{},
		queueDepth:  map[int]*obs.Gauge{},
		depthTotal:  map[int]int64{},
		streamRing:  map[int]*obs.Gauge{},
		streamHopBW: map[int]*obs.Gauge{},
		schedPlace:  map[string]*obs.Counter{},
		schedSaved:  map[int]*obs.Counter{},
	}
	for _, c := range trace.Categories {
		lbl := obs.L("cat", c.String())
		m.busy[c] = reg.Counter(mBusyNS, "virtual busy time per execution category", lbl)
		m.spans[c] = reg.Counter(mSpans, "completed spans per execution category", lbl)
		m.spanNS[c] = reg.Histogram(mSpanNS, "span duration distribution", spanNSBuckets, lbl)
	}
	for _, n := range rt.tree.Nodes() {
		if n.Mem != nil {
			m.nominalBW[n.ID] = n.Mem.Profile().ReadBW
		}
	}
	m.cacheHits = reg.Counter("northup_cache_hits_total", "staging-cache fetches served from a resident buffer")
	m.cacheMisses = reg.Counter("northup_cache_misses_total", "staging-cache fetches that crossed the edge")
	m.cacheEvictions = reg.Counter("northup_cache_evictions_total", "staging-cache entries evicted")
	m.cachePrefetches = reg.Counter("northup_cache_prefetches_total", "lookahead fetches issued")
	m.cachePrefetchHits = reg.Counter("northup_cache_prefetch_hits_total", "prefetched entries that served a demand fetch")
	m.cacheBypasses = reg.Counter("northup_cache_bypasses_total", "cached fetches that fell back to a plain move")
	m.cacheInvalidations = reg.Counter("northup_cache_invalidations_total", "entries dropped after their source was overwritten")
	m.cachePrefetchErrors = reg.Counter("northup_cache_prefetch_errors_total", "lookahead fills that failed after exhausting retries")
	m.cacheHitBytes = reg.Counter("northup_cache_hit_bytes_total", "bytes served from resident buffers")
	m.cacheMissBytes = reg.Counter("northup_cache_miss_bytes_total", "bytes fetched across the edge")
	m.cacheHitRate = reg.Gauge(mCacheHitRate, "hits / (hits + misses)")

	m.resFaults = reg.Counter("northup_faults_total", "transient failures observed before retrying")
	m.resRetries = reg.Counter("northup_retries_total", "re-attempts made")
	m.resTimeouts = reg.Counter("northup_timeouts_total", "operations that exceeded the per-op deadline")
	m.resFailovers = reg.Counter("northup_failovers_total", "leaf tasks re-routed to a sibling processor")
	m.resGaveUp = reg.Counter("northup_gave_up_total", "operations that exhausted retries")

	m.faultTransferFails = reg.Counter("northup_fault_transfer_fails_total", "transfers failed outright by the injector")
	m.faultTransferDelays = reg.Counter("northup_fault_transfer_delays_total", "transfers stalled by the injector")
	m.faultAllocFails = reg.Counter("northup_fault_alloc_fails_total", "allocations transiently refused by the injector")
	m.faultOfflineRejects = reg.Counter("northup_fault_offline_rejects_total", "operations refused inside an outage window")

	m.queuePops = reg.Counter(mQueuePops, "local deque pops across leaf schedulers")
	m.queueSteal = reg.Counter(mQueueSteals, "work-steal operations across leaf schedulers")
	m.schedTasks = reg.Counter(mSchedTasks, "tasks placed by the task-graph scheduler")

	m.streamMoves = reg.Counter(mStreamMoves, "streamed moves issued")
	m.streamSubChunks = reg.Counter(mStreamSubChunks, "sub-chunks across all streamed moves")
	m.streamHopMoves = reg.Counter(mStreamHopMoves, "per-hop sub-chunk moves driven by the stream engine")
	m.streamBytes = reg.Counter(mStreamBytes, "payload bytes delivered by streamed moves")
	m.streamInflight = reg.Gauge(mStreamInflight, "sub-chunks currently in the pipe")

	m.traceDropped = reg.Gauge(mTraceDropped, "events the bounded trace ring dropped")
	m.elapsed = reg.Gauge(mElapsedNS, "virtual time at the last metrics sync")
	return m
}

// nodeLabel renders a node-ID label. Node counts are small and stable, so
// the handle maps memoise away the strconv after first use.
func nodeLabel(node int) obs.Label { return obs.L("node", strconv.Itoa(node)) }

// noteSpan is chargeSpan's metrics half: the identical duration the
// Breakdown received, plus span count, duration histogram, and — for data
// movement — per-node byte totals.
func (m *runtimeMetrics) noteSpan(lane trace.Lane, cat trace.Category, start, end sim.Time, value int64) {
	if cat < 0 || int(cat) >= len(m.busy) {
		return
	}
	d := int64(end - start)
	m.busy[cat].Add(d)
	m.spans[cat].Inc()
	m.spanNS[cat].Observe(d)
	if (cat == trace.Transfer || cat == trace.IO) && value > 0 && lane.Node >= 0 {
		c, ok := m.movedBytes[lane.Node]
		if !ok {
			c = m.reg.Counter(mMovedBytes, "bytes moved into each node", nodeLabel(lane.Node))
			m.movedBytes[lane.Node] = c
		}
		c.Add(value)
	}
}

// MetricsEnabled reports whether a registry is attached.
func (rt *Runtime) MetricsEnabled() bool { return rt.met != nil }

// Metrics returns the runtime's registry, nil when metrics are off.
func (rt *Runtime) Metrics() *obs.Registry {
	if rt.met == nil {
		return nil
	}
	return rt.met.reg
}

// MetricsSampler returns the attached sampler (nil without one).
func (rt *Runtime) MetricsSampler() *obs.Sampler {
	if rt.met == nil {
		return nil
	}
	return rt.met.sampler
}

// maybeSample advances the sampler when a tick boundary has passed: gauges
// are refreshed by a sync first so the sampled values are current. Called
// from charge points; one comparison when no sampler is due.
func (rt *Runtime) maybeSample(now sim.Time) {
	if rt.met.sampler.Due(now) {
		rt.syncMetrics(now)
		rt.met.sampler.Observe(now)
	}
}

// SyncMetrics mirrors every scattered stat source into the registry at the
// current virtual time. Exports should call it (Run does, at completion)
// before reading the registry; it is idempotent.
func (rt *Runtime) SyncMetrics() {
	if rt.met == nil {
		return
	}
	rt.syncMetrics(rt.engine.Now())
}

// syncMetrics raises counters to their sources' cumulative totals and
// recomputes derived gauges. rt.met must be non-nil.
func (rt *Runtime) syncMetrics(now sim.Time) {
	m := rt.met

	cs := rt.bd.Cache()
	m.cacheHits.SyncTo(cs.Hits)
	m.cacheMisses.SyncTo(cs.Misses)
	m.cacheEvictions.SyncTo(cs.Evictions)
	m.cachePrefetches.SyncTo(cs.Prefetches)
	m.cachePrefetchHits.SyncTo(cs.PrefetchHits)
	m.cacheBypasses.SyncTo(cs.Bypasses)
	m.cacheInvalidations.SyncTo(cs.Invalidations)
	m.cachePrefetchErrors.SyncTo(cs.PrefetchErrors)
	m.cacheHitBytes.SyncTo(cs.HitBytes)
	m.cacheMissBytes.SyncTo(cs.MissBytes)
	m.cacheHitRate.Set(cs.HitRate())

	m.resFaults.SyncTo(rt.res.Faults)
	m.resRetries.SyncTo(rt.res.Retries)
	m.resTimeouts.SyncTo(rt.res.Timeouts)
	m.resFailovers.SyncTo(rt.res.Failovers)
	m.resGaveUp.SyncTo(rt.res.GaveUp)

	if inj := rt.opts.Faults; inj != nil {
		fs := inj.Stats()
		m.faultTransferFails.SyncTo(fs.TransferFails)
		m.faultTransferDelays.SyncTo(fs.TransferDelays)
		m.faultAllocFails.SyncTo(fs.AllocFails)
		m.faultOfflineRejects.SyncTo(fs.OfflineRejects)
	}

	m.streamMoves.SyncTo(rt.streamStats.Streams)
	m.streamSubChunks.SyncTo(rt.streamStats.SubChunks)
	m.streamHopMoves.SyncTo(rt.streamStats.HopMoves)
	m.streamBytes.SyncTo(rt.streamStats.Bytes)
	m.streamInflight.Set(float64(rt.streamInflight))
	for node, agg := range rt.streamHops {
		g, ok := m.streamHopBW[node]
		if !ok {
			g = m.reg.Gauge(mStreamHopBW, "achieved streamed-hop bandwidth into each node, bytes/s", nodeLabel(node))
			m.streamHopBW[node] = g
		}
		if agg.busy > 0 {
			g.Set(float64(agg.bytes) / (float64(agg.busy) / 1e9))
		}
	}

	if rt.rec != nil {
		m.traceDropped.Set(float64(rt.rec.Dropped()))
	}
	m.elapsed.Set(float64(now))

	// Bandwidth utilization: cumulative bytes into the node over what its
	// device could nominally have read in the elapsed time. A coarse
	// full-run average, like the trace summary's achieved-vs-nominal column.
	if now > 0 {
		sec := float64(now) / 1e9
		for node, c := range m.movedBytes {
			g, ok := m.bwUtil[node]
			if !ok {
				g = m.reg.Gauge(mBWUtil, "moved bytes over nominal read bandwidth x elapsed", nodeLabel(node))
				m.bwUtil[node] = g
			}
			if bw := m.nominalBW[node]; bw > 0 {
				g.Set(float64(c.Value()) / (sec * bw))
			}
		}
	}
}

// depthGauge resolves (and memoises) the node's queue-depth gauge.
func (m *runtimeMetrics) depthGauge(node int) *obs.Gauge {
	g, ok := m.queueDepth[node]
	if !ok {
		g = m.reg.Gauge(mQueueDepth, "work-queue depth per leaf scheduler", nodeLabel(node))
		m.queueDepth[node] = g
	}
	return g
}

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
	rt     *Runtime
	node   int
	depth  int64
	closed bool
}

// NewQueueDepthSlot registers a scheduler's depth contribution for node.
// Usable (as a no-op) even when metrics are off.
func (rt *Runtime) NewQueueDepthSlot(node int) *QueueDepthSlot {
	return &QueueDepthSlot{rt: rt, node: node}
}

// Set publishes the slot's current depth; the node gauge moves by the
// delta from the slot's previous value.
func (s *QueueDepthSlot) Set(depth int64) {
	if s == nil || s.closed || s.rt.met == nil {
		return
	}
	m := s.rt.met
	m.depthTotal[s.node] += depth - s.depth
	s.depth = depth
	m.depthGauge(s.node).Set(float64(m.depthTotal[s.node]))
	s.rt.maybeSample(s.rt.engine.Now())
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
// Listing 1's work_queue links intend, and wires their hooks when anyone
// listens: with a trace recorder each steal is an instant on c's queue
// lane naming the victim queue; with metrics, pops and steals feed the
// runtime totals and every push, pop and steal republishes the deques'
// total length through depth. The caller owns depth (it may also Set it at
// its own barriers) and calls detach when the deques retire.
func WatchDeques[T any](c *Ctx, node *topo.Node, depth *QueueDepthSlot, queues []*sched.Deque[T]) (detach func()) {
	monitors := make([]sched.Monitor, len(queues))
	for i, q := range queues {
		monitors[i] = q
	}
	detach = node.AttachQueues(monitors...)

	rt := c.rt
	traceOn := rt.TraceRecorder() != nil
	metricsOn := rt.MetricsEnabled()
	if !traceOn && !metricsOn {
		return detach
	}
	noteDepth := func() {
		if metricsOn {
			depth.Set(int64(sched.TotalLen(queues)))
		}
	}
	for i, q := range queues {
		qi := int64(i)
		q.OnSteal = func() {
			if traceOn {
				c.TraceInstant(trace.TrackQueue, "steal", qi)
			}
			if metricsOn {
				rt.NoteSteals(1)
			}
			noteDepth()
		}
		if metricsOn {
			q.OnPush = noteDepth
			q.OnPop = func() {
				rt.NotePops(1)
				noteDepth()
			}
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
	if rt.met == nil {
		return
	}
	m := rt.met
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

// NotePops adds to the pop total (leaf schedulers report their deque
// counts). No-op without metrics.
func (rt *Runtime) NotePops(n int64) {
	if rt.met != nil {
		rt.met.queuePops.Add(n)
	}
}

// NoteSteals adds to the steal total. No-op without metrics.
func (rt *Runtime) NoteSteals(n int64) {
	if rt.met != nil {
		rt.met.queueSteal.Add(n)
	}
}
