package core

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Ctx is the task context of a recursive Northup function: it knows which
// tree node the task currently executes at and exposes the paper's query
// and data-management API relative to that node (get_cur_treenode,
// get_level, get_max_treelevel, data_down/up, northup_spawn, ...).
type Ctx struct {
	rt   *Runtime
	p    *sim.Proc
	node *topo.Node
}

// Proc returns the simulation process executing this task.
func (c *Ctx) Proc() *sim.Proc { return c.p }

// Runtime returns the owning runtime.
func (c *Ctx) Runtime() *Runtime { return c.rt }

// Node returns the current tree node (the paper's get_cur_treenode()).
func (c *Ctx) Node() *topo.Node { return c.node }

// Level returns the current memory level (get_level()).
func (c *Ctx) Level() int { return c.node.Level }

// MaxLevel returns the deepest level of the tree (get_max_treelevel()).
func (c *Ctx) MaxLevel() int { return c.rt.tree.MaxLevel() }

// IsLeaf reports whether execution reached a leaf, the recursion's base
// case test in Listing 3.
func (c *Ctx) IsLeaf() bool { return c.node.IsLeaf() }

// Children returns the current node's children (get_children_list()).
func (c *Ctx) Children() []*topo.Node { return c.node.Children }

// Parent returns the current node's parent (get_parent()).
func (c *Ctx) Parent() *topo.Node { return c.node.Parent }

// Alloc reserves a buffer on the current node.
func (c *Ctx) Alloc(size int64) (*Buffer, error) {
	return c.rt.AllocAt(c.p, c.node, size)
}

// AllocAt reserves a buffer on an arbitrary node (SetupBuffers reserves a
// whole set at a child before data moves down to it).
func (c *Ctx) AllocAt(node *topo.Node, size int64) (*Buffer, error) {
	return c.rt.AllocAt(c.p, node, size)
}

// Release frees a buffer. Releasing nil or releasing twice returns an
// error; the buffer is freed only on a nil return.
func (c *Ctx) Release(b *Buffer) error { return c.rt.Release(c.p, b) }

// SetupBuffers is Listing 3's setup_buffers: it reserves bufs[i] of
// sizes[i] bytes at node through AllocAt, in order. The set is all or
// nothing: when an allocation fails, the buffers already reserved are
// released in order, bufs is cleared, and that AllocAt error is returned.
// bufs is the caller's (usually a local array), so a chunk loop that sets
// up its buffers allocates no slice.
func (c *Ctx) SetupBuffers(node *topo.Node, bufs []*Buffer, sizes ...int64) error {
	if len(bufs) != len(sizes) {
		panic(fmt.Sprintf("core: SetupBuffers of %d buffers given %d sizes", len(bufs), len(sizes)))
	}
	for i, size := range sizes {
		b, err := c.AllocAt(node, size)
		if err != nil {
			c.ReleaseAll(bufs[:i])
			clear(bufs)
			return err
		}
		bufs[i] = b
	}
	return nil
}

// ReleaseAll releases the buffers in order, as the release of a set from
// SetupBuffers; like a deferred Release, it ignores each one's error.
func (c *Ctx) ReleaseAll(bufs []*Buffer) {
	for _, b := range bufs {
		c.Release(b)
	}
}

// MoveData is the unified move between any two buffers (Table I).
func (c *Ctx) MoveData(dst, src *Buffer, dstOff, srcOff, n int64) error {
	return c.rt.MoveData(c.p, dst, src, dstOff, srcOff, n)
}

// MoveData2D is the strided block variant of MoveData.
func (c *Ctx) MoveData2D(dst, src *Buffer, dstOff, dstStride, srcOff, srcStride int64, rows, rowBytes int) error {
	return c.rt.MoveData2D(c.p, dst, src, dstOff, dstStride, srcOff, srcStride, rows, rowBytes)
}

// MoveDataTransposeF32 is the layout-transforming move of §VI: the block
// arrives transposed (see Runtime.MoveDataTransposeF32).
func (c *Ctx) MoveDataTransposeF32(dst, src *Buffer, dstOff, srcOff int64, rows, cols int) error {
	return c.rt.MoveDataTransposeF32(c.p, dst, src, dstOff, srcOff, rows, cols)
}

// MoveDataDown moves bytes from a buffer on the current node to a buffer on
// one of its children (Table I's move_data_down, with the child as
// destination). It validates the edge so programs cannot silently skip
// levels.
func (c *Ctx) MoveDataDown(dst, src *Buffer, dstOff, srcOff, n int64) error {
	if src.node != c.node || dst.node.Parent != c.node {
		return fmt.Errorf("core: move_data_down from %v must go to a child of %v (got %v -> %v)",
			c.node, c.node, src.node, dst.node)
	}
	return c.MoveData(dst, src, dstOff, srcOff, n)
}

// MoveDataDownCached serves src[srcOff:srcOff+n) as a buffer resident on
// child, through the child's staging cache: a repeat of the same source
// extent is a hit and costs no edge crossing. The returned buffer is
// pinned for the caller and read-only; let go with Unpin (never Release),
// and never move data into it. With the cache disabled the call degrades
// to plain alloc + move (the returned buffer is then private, and Unpin
// releases it), so applications use one code path either way.
func (c *Ctx) MoveDataDownCached(child *topo.Node, src *Buffer, srcOff, n int64) (*Buffer, error) {
	return c.rt.moveDataDownCached(c.p, c.node, child, src, srcOff, n)
}

// Pin takes an extra reference on a buffer returned by MoveDataDownCached
// so the cache cannot evict it mid-compute.
func (c *Ctx) Pin(b *Buffer) error { return c.rt.Pin(c.p, b) }

// Unpin releases one reference taken by MoveDataDownCached or Pin.
func (c *Ctx) Unpin(b *Buffer) error { return c.rt.Unpin(c.p, b) }

// Prefetch asks the child's staging cache to fetch src[srcOff:srcOff+n)
// asynchronously — the lookahead a deterministic chunk schedule (a
// Pipeline's next item) makes possible. It is advisory and never fails;
// see Runtime cache.go.
func (c *Ctx) Prefetch(child *topo.Node, src *Buffer, srcOff, n int64) {
	c.rt.prefetchDown(c.p, c.node, child, src, srcOff, n)
}

// MoveDataUp moves bytes from a buffer on a child of the current node back
// to a buffer on the current node (Table I's move_data_up).
func (c *Ctx) MoveDataUp(dst, src *Buffer, dstOff, srcOff, n int64) error {
	if dst.node != c.node || src.node.Parent != c.node {
		return fmt.Errorf("core: move_data_up to %v must come from a child of %v (got %v -> %v)",
			c.node, c.node, src.node, dst.node)
	}
	return c.MoveData(dst, src, dstOff, srcOff, n)
}

// Descend runs fn synchronously as a task at a child node: the recursive
// call of Listing 3. The child must be a direct child of the current node.
func (c *Ctx) Descend(child *topo.Node, fn func(*Ctx) error) error {
	if child.Parent != c.node {
		return fmt.Errorf("core: descend from %v to non-child %v", c.node, child)
	}
	c.rt.chargeOverhead(c.p)
	return fn(&Ctx{rt: c.rt, p: c.p, node: child})
}

// Join is the handle of an asynchronously spawned task.
type Join struct {
	latch *sim.Latch
	err   error
}

// Wait blocks the calling task until the spawned task finishes and returns
// its error.
func (j *Join) Wait(c *Ctx) error { return j.WaitOn(c.p) }

// WaitOn is Wait for callers that hold a raw simulation process (cluster
// coordinators) rather than a task context.
func (j *Join) WaitOn(p *sim.Proc) error {
	j.latch.Wait(p)
	return j.err
}

// Spawn starts fn as a concurrent task at the given node (the asynchronous
// form of northup_spawn: chunks moving down different tree branches, or
// pipelined stages within one branch). The node may be the current node or
// any other; tree-edge discipline is enforced by the move operations, not
// by task placement.
func (c *Ctx) Spawn(name string, node *topo.Node, fn func(*Ctx) error) *Join {
	c.rt.chargeOverhead(c.p)
	j := &Join{latch: sim.NewLatch(c.rt.engine)}
	c.rt.engine.Spawn(name, func(p *sim.Proc) {
		sub := &Ctx{rt: c.rt, p: p, node: node}
		j.err = fn(sub)
		j.latch.Fire()
	})
	return j
}

// SpawnCallback is Spawn for work that never blocks: it charges the same
// bookkeeping, then schedules fn as an engine callback at the instant and
// in the order where Spawn would first resume a new proc, so a scheduler
// that turns its procs into callback chains keeps their schedule. fn must
// not block (see sim.Engine.At).
func (c *Ctx) SpawnCallback(fn func()) {
	c.rt.chargeOverhead(c.p)
	c.rt.engine.At(c.rt.engine.Now(), fn)
}

// errOnce latches the first error a group of cooperating tasks reports, so
// no error is ever dropped between the check and the assignment. The
// single-threaded simulation interleaves tasks only at blocking points, so
// a bare field happens to work today — but check-then-assign from many
// tasks is exactly the fragile pattern a true-parallel backend (or the
// race detector, on a code motion) would break; one type with latch-once
// semantics keeps every stage runner honest.
type errOnce struct {
	err error
}

// record keeps err if it is the first non-nil error observed.
func (o *errOnce) record(err error) {
	if err != nil && o.err == nil {
		o.err = err
	}
}

// failed reports whether an error has been latched.
func (o *errOnce) failed() bool { return o.err != nil }

// first returns the latched error, or nil.
func (o *errOnce) first() error { return o.err }

// ParallelFor executes body for i in [0, n) using up to width concurrent
// tasks at the current node — the "#pragma for all (m, n)" loop of
// Listing 3. It returns the first error encountered (remaining iterations
// are skipped once an error is observed).
func (c *Ctx) ParallelFor(n, width int, body func(sub *Ctx, i int) error) error {
	if n <= 0 {
		return nil
	}
	if width < 1 {
		width = 1
	}
	if width > n {
		width = n
	}
	next := 0
	var eo errOnce
	wg := sim.NewWaitGroup(c.rt.engine)
	for w := 0; w < width; w++ {
		wg.Add(1)
		c.Spawn(fmt.Sprintf("%s-pf%d", c.p.Name(), w), c.node, func(sub *Ctx) error {
			defer wg.Done()
			for {
				if eo.failed() || next >= n {
					return nil
				}
				i := next
				next++
				eo.record(body(sub, i))
			}
		})
	}
	wg.Wait(c.p)
	return eo.first()
}

// Pipeline runs n items through the given stages with bounded buffering:
// stage s for item i starts only after stage s for item i-1 (stages are
// in-order) and stage s-1 for item i (dataflow). depth bounds how many items
// may sit between consecutive stages — the number of in-flight chunk
// buffers. This is the paper's multi-stage data transfer: "whenever the
// space of lower memory levels is freed, more chunks can be scheduled for
// movement" (§III-C), which overlaps I/O, transfers and computation.
func (c *Ctx) Pipeline(n, depth int, stages ...func(sub *Ctx, i int) error) error {
	if n <= 0 || len(stages) == 0 {
		return nil
	}
	if depth < 1 {
		depth = 1
	}
	// Items pass between stages in order, so a hand-off carries only the
	// news that the next item is ready: handoff[s] counts the items stage s
	// has passed on and stage s+1 has not yet taken.
	nstages := len(stages)
	handoff := make([]*sim.Tokens, nstages-1)
	for i := range handoff {
		handoff[i] = sim.NewBoundedTokens(c.rt.engine, depth-1)
	}
	var eo errOnce
	wg := sim.NewWaitGroup(c.rt.engine)
	for s := 0; s < nstages; s++ {
		wg.Add(1)
		c.Spawn(fmt.Sprintf("%s-stage%d", c.p.Name(), s), c.node, func(sub *Ctx) error {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if s > 0 {
					handoff[s-1].Take(sub.p)
				}
				if !eo.failed() {
					eo.record(stages[s](sub, i))
				}
				if s < nstages-1 {
					handoff[s].PutWait(sub.p)
				}
			}
			return nil
		})
	}
	wg.Wait(c.p)
	return eo.first()
}

// Sequential runs n items through the stages strictly in order with no
// overlap: the baseline a Pipeline is measured against. It has the same
// signature as Pipeline so callers can switch between them.
func (c *Ctx) Sequential(n, depth int, stages ...func(sub *Ctx, i int) error) error {
	_ = depth
	for i := 0; i < n; i++ {
		for _, stage := range stages {
			if err := stage(c, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// GPUModel returns the GPU attached to the current node, or nil.
func (c *Ctx) GPUModel() *gpu.GPU { return GPUAt(c.node) }

// GPUAt returns the GPU attached to n, or nil: what Ctx.GPUModel finds at n.
func GPUAt(n *topo.Node) *gpu.GPU {
	if g, ok := n.Processor(proc.GPU).(*gpu.GPU); ok {
		return g
	}
	return nil
}

// CPUModel returns the CPU attached to the current node or — following the
// paper's CPU-on-non-leaf exception — to any ancestor.
func (c *Ctx) CPUModel() *proc.CPUModel { return CPUAt(c.node) }

// CPUAt returns the CPU a context at n computes on, or nil: what
// Ctx.CPUModel finds at n.
func CPUAt(n *topo.Node) *proc.CPUModel { return throughputAt(n, proc.CPU) }

// PIMModel returns the processor-in-memory attached to the current node or
// an ancestor (§VI: a PIM is a Northup subtree rooted at its memory node).
func (c *Ctx) PIMModel() *proc.CPUModel {
	return throughputAt(c.node, proc.PIM)
}

// FPGAModel returns the FPGA attached to the current node's branch, or nil.
func (c *Ctx) FPGAModel() *proc.FPGAModel {
	for n := c.node; n != nil; n = n.Parent {
		if m, ok := n.Processor(proc.FPGA).(*proc.FPGAModel); ok {
			return m
		}
	}
	return nil
}

// RunFPGA streams elements through the FPGA pipeline configured with spec,
// charging reconfiguration when the bitstream changes (§VII: computation
// is a plug-in; swapping the GPU kernel for a bitstream touches no data
// movement code).
func (c *Ctx) RunFPGA(spec proc.BitstreamSpec, elements int64, fn func()) (sim.Time, error) {
	f := c.FPGAModel()
	if f == nil {
		return 0, fmt.Errorf("core: no FPGA at or above %v", c.node)
	}
	t, err := f.Run(c.p, spec, elements, fn)
	if err != nil {
		return 0, err
	}
	// The model slept exactly t before returning, so [now-t, now) is the
	// busy interval (the same shape every compute charge below uses).
	c.rt.chargeSpan(c.p, trace.Lane{Node: c.node.ID, Track: trace.TrackFPGA},
		trace.FPGACompute, spanFPGA, c.p.Now()-t, c.p.Now(), elements)
	return t, nil
}

// throughputAt finds a CPUModel-backed processor of the given kind on
// node's branch: first at the node or its ancestors (the paper's
// CPU-on-non-leaf exception), then down the first-child chain toward the
// leaf (trees that attach the host CPU at a deeper staging level, e.g.
// storage -> NVM -> DRAM+CPU).
func throughputAt(node *topo.Node, k proc.Kind) *proc.CPUModel {
	for n := node; n != nil; n = n.Parent {
		if m, ok := n.Processor(k).(*proc.CPUModel); ok {
			return m
		}
	}
	for n := node; n != nil; {
		if m, ok := n.Processor(k).(*proc.CPUModel); ok {
			return m
		}
		if n.IsLeaf() {
			break
		}
		n = n.Children[0]
	}
	return nil
}

// LaunchKernel dispatches a GPU kernel on the current node's GPU, charging
// GPU-compute time. It fails when the node has no GPU.
func (c *Ctx) LaunchKernel(k gpu.Kernel, groups int) (sim.Time, error) {
	g := c.GPUModel()
	if g == nil {
		return 0, fmt.Errorf("core: no GPU at %v", c.node)
	}
	c.rt.chargeOverhead(c.p)
	t, err := g.Launch(c.p, k, groups)
	if err != nil {
		return 0, err
	}
	c.rt.chargeSpan(c.p, trace.Lane{Node: c.node.ID, Track: trace.TrackGPU},
		trace.GPUCompute, spanKernel, c.p.Now()-t, c.p.Now(), int64(groups))
	return t, nil
}

// RunCPU executes fn functionally and charges one CPU core for the roofline
// time of (flops, bytes), accounted as CPU compute.
func (c *Ctx) RunCPU(flops, bytes float64, fn func()) (sim.Time, error) {
	return c.runThroughput(proc.CPU, false, trace.CPUCompute, trace.TrackCPU, spanCPU, flops, bytes, fn)
}

// RunCPUParallel executes fn functionally and occupies every CPU core for
// the data-parallel roofline time (an OpenMP-style parallel region).
func (c *Ctx) RunCPUParallel(flops, bytes float64, fn func()) (sim.Time, error) {
	return c.runThroughput(proc.CPU, true, trace.CPUCompute, trace.TrackCPU, spanCPU, flops, bytes, fn)
}

// RunPIM executes fn functionally on the in-memory processor at or above
// the current node, spreading the task data-parallel over all PIM units at
// the memory's internal bandwidth. Running at the data's own node is the
// point: no move_data to a leaf is needed.
func (c *Ctx) RunPIM(flops, bytes float64, fn func()) (sim.Time, error) {
	return c.runThroughput(proc.PIM, true, trace.PIMCompute, trace.TrackPIM, spanPIM, flops, bytes, fn)
}

// runThroughput runs fn on the kind-k throughput processor of the current
// node's branch, on one core or data-parallel over all of them, and
// charges the roofline time to cat as a span named span on the node's
// track lane.
func (c *Ctx) runThroughput(k proc.Kind, parallel bool, cat trace.Category, track, span string,
	flops, bytes float64, fn func()) (sim.Time, error) {
	m := throughputAt(c.node, k)
	if m == nil {
		return 0, fmt.Errorf("core: no %v at or above %v", k, c.node)
	}
	var t sim.Time
	if parallel {
		t = m.RunParallel(c.p, flops, bytes, fn)
	} else {
		t = m.Run(c.p, flops, bytes, fn)
	}
	c.rt.chargeSpan(c.p, trace.Lane{Node: c.node.ID, Track: track},
		cat, span, c.p.Now()-t, c.p.Now(), int64(bytes))
	return t, nil
}

// ChargeTask accounts d of compute in category cat that a proc-less worker
// at the current node (an engine-callback chain started by SpawnCallback)
// has just finished: the span [now-d, now) on the worker's own lane, named
// by track, so each worker renders as its own timeline track. Like
// asyncMove's spans it is made from an engine callback and carries no proc.
func (c *Ctx) ChargeTask(track string, cat trace.Category, d sim.Time) {
	now := c.rt.engine.Now()
	c.rt.chargeSpan(nil, trace.Lane{Node: c.node.ID, Track: track}, cat, spanWorkerTask, now-d, now, 0)
}
