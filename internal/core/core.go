// Package core implements the Northup runtime: recursive divide-and-conquer
// execution over a topological tree of heterogeneous memories and
// processors, with the unified data-management interface of the paper's
// Table I (alloc / move_data / move_data_down / move_data_up / release).
//
// A Runtime binds a topo.Tree to a sim.Engine. Applications are written as
// recursive functions over a task context (Ctx), exactly in the style of the
// paper's Listing 3:
//
//	func step(c *core.Ctx, bufs map[int]*core.Buffer) error {
//		if c.IsLeaf() {
//			return compute(c, bufs)          // computation at leaf nodes
//		}
//		for each chunk (m, n) {
//			setupBuffers(c, ...)             // alloc at the child level
//			c.MoveDataDown(...)              // chunk to the child
//			c.Descend(child, step)           // northup_spawn(step(...))
//			c.MoveDataUp(...)                // result back to this level
//		}
//	}
//
// The runtime keeps the paper's decoupling: data movement (Buffer, MoveData)
// and computation (LaunchKernel, RunCPU) are independent, and neither knows
// the concrete topology. Every operation charges virtual time on the device,
// link and processor models and accounts it to an execution-breakdown
// category (package trace), which is how Figures 6-9 are measured.
package core

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Options tune runtime bookkeeping costs.
type Options struct {
	// OverheadPerOp is the modeled cost of one runtime call (tree lookup,
	// task control, queue operation). The paper measures total runtime
	// overhead below 1% of execution (§V-B); the default of 1µs per
	// operation reproduces that at the paper's coarse chunk granularity
	// while still punishing overly fine-grained decomposition.
	OverheadPerOp sim.Time

	// Phantom disables functional payloads: buffers carry no bytes, moves
	// charge device/link time without copying, and kernels run with nil
	// bodies. Timing is bit-identical to a functional run, so the benchmark
	// harness uses phantom mode to reproduce the paper's figures at their
	// true scale (16k-32k matrices, 16M-row SpMV) without gigabytes of
	// host memory; functional correctness is verified separately at test
	// scale.
	Phantom bool

	// Faults, when non-nil, injects deterministic transient failures into
	// transfers and allocations (see package fault). Injected failures are
	// absorbed by the Retry policy; the run report counts what happened.
	Faults *fault.Injector

	// Retry bounds how the runtime fights transient faults. The zero value
	// is replaced by DefaultRetryPolicy when Faults is set; without an
	// injector it leaves genuine errors un-retried.
	Retry RetryPolicy

	// Cache configures the per-memory-node staging cache serving repeated
	// MoveDataDownCached calls from resident buffers (see cache.go). The
	// zero value disables it.
	Cache CacheOptions

	// Trace, when non-nil, records every simulated activity as a timeline
	// event (see tracing.go and package trace): spans for moves, I/O,
	// kernels, allocations and bookkeeping; instants for cache activity,
	// faults and steals. It is the first subscriber of the runtime's
	// observation stream. Nil (the default) disables tracing at zero cost.
	Trace *trace.Recorder

	// Metrics, when non-nil, is the registry the runtime continuously
	// populates (see metrics.go and package obs): busy time, span counts
	// and duration histograms per category, per-node byte totals and
	// bandwidth utilization, cache/resilience/fault counters, queue depth.
	// It subscribes to the observation stream after Trace. Nil (the
	// default) disables metrics at zero cost.
	Metrics *obs.Registry

	// Sampler, when non-nil, snapshots the registry's gauges at its
	// virtual-time tick, producing deterministic time series. It must have
	// been built on Metrics (obs.NewSampler(Metrics, ...)); it is ignored
	// without a registry.
	Sampler *obs.Sampler
}

// DefaultOptions returns the standard bookkeeping costs.
func DefaultOptions() Options {
	return Options{OverheadPerOp: sim.Microseconds(1)}
}

// Runtime executes Northup programs on one tree.
type Runtime struct {
	engine *sim.Engine
	tree   *topo.Tree
	opts   Options

	allocs map[int]*alloc.Allocator // node ID -> allocator (mem-kind nodes)
	caches map[int]*nodeCache       // node ID -> staging cache (lazy, see cache.go)
	pcie   *device.Link
	dma    *device.Link

	bd        trace.Breakdown
	res       ResilienceStats
	observers []Observer // the observation stream's subscribers (tracing.go)
	bufSeq    int
	bufIDs    int64 // stable buffer identities keying cache entries

	// Streamed-move telemetry (see stream.go): cumulative counters, the
	// current number of sub-chunks in flight, and per-hop achieved-bandwidth
	// aggregates keyed by the hop's destination node.
	streamStats    StreamStats
	streamInflight int64
	streamHops     map[int]*streamHopAgg

	// scratch recycles the file-to-file staging buffers of moveOnce,
	// asyncMove and move2DOnce, so retries and hot loops stop re-allocating.
	scratch [][]byte

	// watches hear residency changes at one node each (WatchResidency).
	watches []*residencyWatch
}

// nextBufID mints the next stable buffer identity.
func (rt *Runtime) nextBufID() int64 {
	rt.bufIDs++
	return rt.bufIDs
}

// NewRuntime creates a runtime for the tree. The engine must be the one the
// tree's devices were built on.
func NewRuntime(e *sim.Engine, t *topo.Tree, opts Options) *Runtime {
	if opts.Faults != nil && opts.Retry == (RetryPolicy{}) {
		opts.Retry = DefaultRetryPolicy()
	}
	if opts.Metrics == nil {
		opts.Sampler = nil
	}
	rt := &Runtime{
		engine:     e,
		tree:       t,
		opts:       opts,
		allocs:     make(map[int]*alloc.Allocator),
		caches:     make(map[int]*nodeCache),
		pcie:       device.PCIeLink(e),
		dma:        device.DMALink(e),
		streamHops: make(map[int]*streamHopAgg),
	}
	for _, n := range t.Nodes() {
		if !n.Kind().IsFileStore() {
			rt.allocs[n.ID] = alloc.New(n.Mem)
		}
	}
	if opts.Trace != nil {
		rt.Subscribe(recorderObserver{opts.Trace})
	}
	if opts.Metrics != nil {
		rt.Subscribe(newRuntimeMetrics(rt, opts.Metrics))
	}
	return rt
}

// Tree returns the topology the runtime executes on.
func (rt *Runtime) Tree() *topo.Tree { return rt.tree }

// Engine returns the simulation engine.
func (rt *Runtime) Engine() *sim.Engine { return rt.engine }

// Breakdown returns the accumulated execution breakdown.
func (rt *Runtime) Breakdown() *trace.Breakdown { return &rt.bd }

// Allocator returns the space allocator of a memory-kind node (nil for
// file-backed nodes, which allocate through their file store).
func (rt *Runtime) Allocator(n *topo.Node) *alloc.Allocator { return rt.allocs[n.ID] }

// chargeOverhead models one unit of runtime bookkeeping on the calling
// process and accounts it to the Runtime category.
func (rt *Runtime) chargeOverhead(p *sim.Proc) {
	if rt.opts.OverheadPerOp <= 0 {
		return
	}
	start := p.Now()
	p.Sleep(rt.opts.OverheadPerOp)
	rt.chargeSpan(p, laneRuntime, trace.Runtime, spanBookkeeping, start, p.Now(), 0)
}

// RunStats summarizes one Runtime.Run invocation.
type RunStats struct {
	// Elapsed is the virtual time the run took.
	Elapsed sim.Time
	// Breakdown is a snapshot of the per-category busy times accumulated
	// during the run.
	Breakdown trace.Breakdown
	// Resilience is the fault-handling activity (retries, timeouts,
	// failovers) during the run.
	Resilience ResilienceStats
}

// Start spawns fn as a root task bound to the tree root without driving
// the engine: the entry point when several runtimes share one engine (a
// cluster of simulated machines, package cluster). The caller must run the
// engine and wait on the returned handle.
func (rt *Runtime) Start(name string, fn func(c *Ctx) error) *Join {
	j := &Join{latch: sim.NewLatch(rt.engine)}
	rt.engine.Spawn(name, func(p *sim.Proc) {
		c := &Ctx{rt: rt, p: p, node: rt.tree.Root()}
		j.err = fn(c)
		j.latch.Fire()
	})
	return j
}

// Run executes fn as the root task of a Northup program: a simulation
// process bound to the tree root (level 0, the slowest storage). It drives
// the engine until the task — and everything it spawned — completes, and
// returns the elapsed virtual time with its execution breakdown.
func (rt *Runtime) Run(name string, fn func(c *Ctx) error) (RunStats, error) {
	start := rt.engine.Now()
	before := rt.bd
	resBefore := rt.res
	var taskErr error
	rt.engine.Spawn(name, func(p *sim.Proc) {
		c := &Ctx{rt: rt, p: p, node: rt.tree.Root()}
		taskErr = fn(c)
	})
	if err := rt.engine.Run(); err != nil {
		return RunStats{}, fmt.Errorf("core: run %q: %w", name, err)
	}
	if taskErr != nil {
		return RunStats{}, taskErr
	}
	elapsed := rt.engine.Now() - start
	rt.bd.SetTotal(elapsed)
	// The snapshot reports only this run's deltas, so several phases (e.g.
	// preprocessing, then the measured pass) can share one runtime.
	snap := rt.bd.DeltaFrom(&before)
	snap.SetTotal(elapsed)
	return RunStats{Elapsed: elapsed, Breakdown: snap,
		Resilience: rt.res.DeltaFrom(resBefore)}, nil
}

// PiecesToFit returns how many equal pieces a working set of totalBytes
// must be divided into so that buffersPerPiece pieces fit simultaneously
// into freeBytes — the capacity-driven blocking-size decision of §III-B
// ("by examining the capacity and usage, a program can decide the blocking
// size"). The result is always at least 1.
func PiecesToFit(totalBytes, freeBytes int64, buffersPerPiece int) int {
	if totalBytes <= 0 || buffersPerPiece <= 0 {
		return 1
	}
	if freeBytes <= 0 {
		panic("core: PiecesToFit with no free capacity")
	}
	pieces := 1
	for int64(buffersPerPiece)*(totalBytes/int64(pieces)) > freeBytes {
		pieces++
	}
	return pieces
}
