// Package taskgraph is the shared data-affinity task scheduler of the
// runtime: applications declare tasks with the byte extents they read and
// write plus a kernel cost hint, the graph infers dependencies from extent
// overlap in program order, and a small worker pool executes the resulting
// DAG either with locality-blind work stealing (the baseline every app
// hand-wired before) or with residency-aware affinity placement.
//
// The affinity policy prices each ready task as estimated compute time plus
// estimated bytes-to-move: input extents already staged at the scheduling
// node — resident, pinned, or in flight in the staging cache
// (internal/cache) — score zero, so the scheduler gravitates toward tasks
// whose data is already close, the placement heuristic of XKaapi-style
// affinity scheduling. Compute estimates come from a sched.ProfileScheduler
// learned online (or warm-started from an exported profile), so the scorer
// improves as the run progresses. Move prices are cached per task and
// recomputed only when the runtime's residency watch reports that one of
// the task's read extents entered or left the staging cache, so a pick
// costs one pass over the ready list, not a cache probe per input.
//
// Everything is deterministic: candidate scanning, scoring, and
// tie-breaking depend only on graph order and simulation state, so repeated
// runs with the same seed produce byte-identical schedules.
package taskgraph

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Extent is a half-open byte range of a buffer — the unit of the scheduler's
// dependence analysis and residency probing. Extents are matched the way the
// staging cache matches them: by the buffer's stable ID and exact range for
// residency, by range intersection for dependencies.
type Extent struct {
	Buf *core.Buffer
	Off int64
	Len int64
}

// empty reports whether the extent names no buffer or no bytes; an empty
// extent overlaps nothing.
func (e Extent) empty() bool { return e.Buf == nil || e.Len <= 0 }

// overlaps reports whether two extents intersect in the same buffer.
func (e Extent) overlaps(o Extent) bool {
	if e.empty() || o.empty() || e.Buf.ID() != o.Buf.ID() {
		return false
	}
	return e.Off < o.Off+o.Len && o.Off < e.Off+e.Len
}

// overlapBytes returns the size of the intersection of two extents.
func overlapBytes(a, b Extent) int64 {
	if !a.overlaps(b) {
		return 0
	}
	lo, hi := a.Off, a.Off+a.Len
	if b.Off > lo {
		lo = b.Off
	}
	if b.Off+b.Len < hi {
		hi = b.Off + b.Len
	}
	return hi - lo
}

// Task is one schedulable unit: a body plus its declared data footprint.
type Task struct {
	// Name labels the task; Kind is the profile key (defaults to Name) —
	// tasks of one Kind share a fitted cost model in the ProfileScheduler.
	Name string
	Kind string

	// Reads and Writes declare the extents the body touches. The graph
	// serializes RAW, WAR and WAW overlaps in program order; disjoint tasks
	// run in any order, concurrently.
	Reads  []Extent
	Writes []Extent

	// Cost is the kernel cost hint in any consistent unit (flops, non-zeros,
	// cells); it is the size fed to the profile's linear cost model.
	Cost float64

	// Run executes the task. The context runs at the node Graph.Run was
	// called from, so bodies use the ordinary staging API
	// (MoveDataDownCached, Descend, ...) unchanged.
	Run func(*core.Ctx) error

	id     int
	outs   []int // task IDs unblocked by this task's completion
	nblock int   // predecessors not yet completed (at build time: total)
	// seenBy is 1 + the ID of the last task Add counted this one as a
	// predecessor of, so an edge is added once however many extents clash.
	seenBy int
}

// ID returns the task's position in program order.
func (t *Task) ID() int { return t.id }

// Graph is an extent-declared task DAG under construction.
type Graph struct {
	tasks []*Task
	// bufs indexes every declared extent by buffer ID: Add visits only the
	// earlier extents that can overlap a new one, and affinity placement
	// finds the readers of an extent whose residency changed.
	bufs map[int64]*bufExtents
	// decls chains, per distinct extent, the tasks that declared it.
	decls []decl
}

// decl is one task's declaration of a span's extent, linked to the next
// declaration of the same span (-1 ends the chain).
type decl struct{ id, next int32 }

// bufExtents is one buffer's declared extents, reads and writes apart.
type bufExtents struct{ reads, writes spans }

// spans holds the distinct extents of one buffer, sorted by offset, then
// length.
type spans struct {
	s []span
	// maxLen bounds every extent's length (and is at least 0), so an
	// extent ending after off starts after off-maxLen.
	maxLen int64
}

// span is one distinct extent and its declarations in program order.
type span struct {
	off, len    int64
	first, last int32 // indices into Graph.decls
}

// find returns where [off, off+n) is, or belongs, in ss.
func (ss *spans) find(off, n int64) (int, bool) {
	i := sort.Search(len(ss.s), func(i int) bool {
		x := &ss.s[i]
		return x.off > off || x.off == off && x.len >= n
	})
	return i, i < len(ss.s) && ss.s[i].off == off && ss.s[i].len == n
}

// declare records that task id declares [off, off+n) in ss.
func (g *Graph) declare(ss *spans, off, n int64, id int) {
	d := int32(len(g.decls))
	if i, ok := ss.find(off, n); !ok {
		ss.s = slices.Insert(grow(ss.s), i, span{off: off, len: n, first: d, last: d})
		ss.maxLen = max(ss.maxLen, n)
	} else if x := &ss.s[i]; g.decls[x.last].id != int32(id) {
		g.decls[x.last].next = d
		x.last = d
	} else {
		return // the task declared the extent twice
	}
	g.decls = append(grow(g.decls), decl{id: int32(id), next: -1})
}

// grow doubles a full slice's capacity. The index's slices only grow, and
// over a graph's construction doubling allocates fewer bytes than
// append's 1.25x steps for long slices.
func grow[E any](s []E) []E {
	if len(s) < cap(s) {
		return s
	}
	return slices.Grow(s, max(len(s), 4))
}

// each calls fn with the tasks that declared x, in program order.
func (g *Graph) each(x *span, fn func(id int)) {
	for d := x.first; d >= 0; d = g.decls[d].next {
		fn(int(g.decls[d].id))
	}
}

// overlapping calls fn with every task that declared an extent in ss
// overlapping [off, off+n), by Extent.overlaps' rule.
func (g *Graph) overlapping(ss *spans, off, n int64, fn func(id int)) {
	i := sort.Search(len(ss.s), func(i int) bool { return ss.s[i].off > off-ss.maxLen })
	for ; i < len(ss.s) && ss.s[i].off < off+n; i++ {
		if x := &ss.s[i]; off < x.off+x.len {
			g.each(x, fn)
		}
	}
}

// readers calls fn with every task that reads exactly [off, off+n) of the
// buffer with ID src.
func (g *Graph) readers(src, off, n int64, fn func(id int)) {
	if b := g.bufs[src]; b != nil {
		if i, ok := b.reads.find(off, n); ok {
			g.each(&b.reads.s[i], fn)
		}
	}
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Len returns the number of tasks added so far.
func (g *Graph) Len() int { return len(g.tasks) }

// Tasks returns the tasks in program order (shared slice; callers must not
// mutate).
func (g *Graph) Tasks() []*Task { return g.tasks }

// Add appends t in program order and infers its dependencies: t waits on
// every earlier task whose writes overlap t's reads or writes, or whose
// reads overlap t's writes. Read-read sharing never orders tasks. Add
// returns t for chaining.
func (g *Graph) Add(t *Task) *Task {
	if t.Kind == "" {
		t.Kind = t.Name
	}
	t.id = len(g.tasks)
	dep := func(id int) {
		if prev := g.tasks[id]; prev.seenBy != t.id+1 {
			prev.seenBy = t.id + 1
			prev.outs = append(prev.outs, t.id)
			t.nblock++
		}
	}
	// An empty extent overlaps nothing, so it is neither queried nor
	// indexed.
	for _, r := range t.Reads {
		if !r.empty() {
			g.overlapping(&g.index(r).writes, r.Off, r.Len, dep)
		}
	}
	for _, w := range t.Writes {
		if !w.empty() {
			b := g.index(w)
			g.overlapping(&b.writes, w.Off, w.Len, dep)
			g.overlapping(&b.reads, w.Off, w.Len, dep)
		}
	}
	for _, r := range t.Reads {
		if !r.empty() {
			g.declare(&g.index(r).reads, r.Off, r.Len, t.id)
		}
	}
	for _, w := range t.Writes {
		if !w.empty() {
			g.declare(&g.index(w).writes, w.Off, w.Len, t.id)
		}
	}
	g.tasks = append(g.tasks, t)
	return t
}

// index returns the index of e's buffer, creating it.
func (g *Graph) index(e Extent) *bufExtents {
	b := g.bufs[e.Buf.ID()]
	if b == nil {
		if g.bufs == nil {
			g.bufs = make(map[int64]*bufExtents)
		}
		b = &bufExtents{}
		g.bufs[e.Buf.ID()] = b
	}
	return b
}

// Options configures one Graph.Run.
type Options struct {
	// Workers is the worker-pool width (default 2).
	Workers int

	// Affinity switches residency-aware placement on. Off, the pool runs
	// locality-blind work stealing over per-worker deques — the baseline the
	// A/B ablation compares against.
	Affinity bool

	// Node is the staging node placement is scored against (where task
	// inputs are cached); nil uses the node Graph.Run is called at.
	Node *topo.Node

	// Profile, when non-nil, supplies compute-time estimates per task Kind
	// and is fed every completed task, so estimates sharpen as the run
	// progresses. Import a ProfileSnapshot to warm-start it.
	Profile *sched.ProfileScheduler
}

// Stats reports how the pool dispatched the graph.
type Stats struct {
	// Tasks is the number of tasks in the graph.
	Tasks int
	// Pops and Steals count baseline-mode dispatches through the owner and
	// thief deque paths.
	Pops, Steals int64
	// AffinityPicks counts affinity-mode placements.
	AffinityPicks int64
	// SavedBytes is how many declared input bytes affinity placement found
	// already resident at the staging node — edge crossings the schedule
	// avoided paying.
	SavedBytes int64
}

// fetchSeconds estimates the time to move n bytes from src's node into the
// staging node: bytes over the bottleneck of the source device's read
// bandwidth and the destination memory's write bandwidth. A coarse
// first-order price — the scorer only needs candidate ranking, not exact
// latency.
func fetchSeconds(src *core.Buffer, at *topo.Node, n int64) float64 {
	if n <= 0 {
		return 0
	}
	var bw float64
	sn := src.Node()
	switch {
	case sn.Store != nil:
		bw = sn.Store.Device().Profile().ReadBW
	case sn.Mem != nil:
		bw = sn.Mem.Profile().ReadBW
	}
	if at != nil && at.Mem != nil {
		if w := at.Mem.Profile().WriteBW; w > 0 && (bw <= 0 || w < bw) {
			bw = w
		}
	}
	if bw <= 0 {
		return 0
	}
	return float64(n) / bw
}

// run is the state one Graph.Run shares between its policy and workers.
type run struct {
	g       *Graph
	c       *core.Ctx
	o       Options
	st      *Stats
	node    *topo.Node // where placement is scored
	workers int
	nblock  []int // per task: predecessors not yet completed

	// tokens carries one send per task that becomes ready; its capacity
	// covers the whole graph so sends never block, and closing it (all
	// done, or first error) releases every idle worker.
	tokens    *sim.Chan
	closed    bool
	err       error // the first task error; later tasks are skipped
	completed int
	depth     *core.QueueDepthSlot
}

func (r *run) signal() {
	if !r.closed {
		r.tokens.TrySend(struct{}{})
	}
}

func (r *run) close() {
	if !r.closed {
		r.closed = true
		r.tokens.Close()
	}
}

// Run executes the graph on a pool of workers spawned at c's node and
// returns dispatch statistics plus the first task error (remaining tasks
// are skipped once an error is observed). Placement decisions are counted
// in the metrics registry (northup_sched_* series) and emitted as trace
// instants on the queue track, so both policies are visible in the
// existing tooling.
func (g *Graph) Run(c *core.Ctx, o Options) (*Stats, error) {
	policy := (*run).runStealing
	if o.Affinity {
		policy = (*run).runAffinity
	}
	return g.runWith(c, o, policy)
}

// runWith is Run with the placement policy given; the tests hand it
// oracle policies.
func (g *Graph) runWith(c *core.Ctx, o Options, policy func(*run)) (*Stats, error) {
	st := &Stats{Tasks: len(g.tasks)}
	if len(g.tasks) == 0 {
		return st, nil
	}
	r := &run{g: g, c: c, o: o, st: st, node: o.Node, workers: o.Workers,
		nblock: make([]int, len(g.tasks)),
		tokens: sim.NewChan(c.Proc().Engine(), len(g.tasks))}
	if r.workers < 1 {
		r.workers = 2
	}
	r.workers = min(r.workers, len(g.tasks))
	if r.node == nil {
		r.node = c.Node()
	}
	for i, t := range g.tasks {
		r.nblock[i] = t.nblock
	}
	r.depth = c.Runtime().NewQueueDepthSlot(r.node.ID)
	defer r.depth.Close()
	policy(r)
	return st, r.err
}

// execute runs one placed task on a worker context, feeding the profile and
// emitting the placement telemetry. On a task error it latches the error,
// releases the idle workers and returns false.
func (r *run) execute(sub *core.Ctx, id int, policy string, saved int64) bool {
	t := r.g.tasks[id]
	sub.Runtime().NoteSchedPlacement(policy, r.node.ID, saved)
	sub.TraceInstant(trace.TrackQueue, "place", int64(t.id))
	start := sub.Proc().Now()
	if err := sub.Task(t.Kind, int64(t.Cost), t.Run); err != nil {
		if r.err == nil {
			r.err = err
		}
		r.close()
		return false
	}
	if r.o.Profile != nil {
		r.o.Profile.Record(t.Kind, t.Cost, sub.Proc().Now()-start)
	}
	r.completed++
	return true
}

// unblock readies id's successors that no longer wait on anything,
// handing each to push and signalling a worker.
func (r *run) unblock(id int, push func(int)) {
	for _, d := range r.g.tasks[id].outs {
		r.nblock[d]--
		if r.nblock[d] == 0 {
			push(d)
			r.signal()
		}
	}
}

// closeIfDone releases the workers once every task has completed.
func (r *run) closeIfDone() {
	if r.completed == len(r.g.tasks) {
		r.close()
	}
}

// runStealing is the locality-blind baseline: per-worker deques, initially
// round-robin partitioned, owners popping their own tails and stealing from
// siblings when dry — the same topology every app's bespoke scheduler used.
func (r *run) runStealing() {
	c := r.c
	queues := make([]*sched.Deque[int], r.workers)
	for i := range queues {
		queues[i] = sched.NewDeque[int](fmt.Sprintf("tg%d", i))
	}
	detach := core.WatchDeques(c, r.node, r.depth, queues)
	defer detach()

	// Initially ready tasks spread round-robin in program order, the layout
	// sched.Partition gives the apps' hand-wired queues.
	k := 0
	for id := range r.g.tasks {
		if r.nblock[id] == 0 {
			queues[k%r.workers].PushTail(id)
			k++
			r.signal()
		}
	}

	wg := sim.NewWaitGroup(c.Runtime().Engine())
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		w := w
		own := queues[w]
		c.Spawn(fmt.Sprintf("tg-worker%d", w), c.Node(), func(sub *core.Ctx) error {
			defer wg.Done()
			for {
				if _, ok := r.tokens.Recv(sub.Proc()); !ok {
					return nil
				}
				if r.err != nil {
					continue // draining after an abort
				}
				id, ok := own.PopTail()
				policy := "queue"
				if !ok {
					if id, _, ok = sched.StealFrom(queues, w); !ok {
						continue
					}
					policy = "steal"
				}
				if !r.execute(sub, id, policy, 0) {
					continue
				}
				// Newly unblocked tasks land on the completing worker's own
				// queue: successors follow their producer unless stolen.
				r.unblock(id, own.PushTail)
				r.closeIfDone()
			}
		})
	}
	wg.Wait(c.Proc())
	r.st.Pops, r.st.Steals = sched.TotalStats(queues)
}

// runAffinity is the residency-aware policy: a shared ready list each idle
// worker prices in one pass, picking the candidate with the lowest
// estimated compute + bytes-to-move price. Ties break toward the task
// overlapping the worker's previous inputs (locality bias), then the
// lowest task ID, so the schedule is a pure function of graph order and
// cache state: the pick is the minimum of (price, -overlap, id), whatever
// order the ready list is in.
func (r *run) runAffinity() {
	c := r.c
	rt := c.Runtime()
	p := newPrices(r)
	detach := rt.WatchResidency(r.node, p.watch)
	defer detach()

	ready := make([]int, 0, len(r.g.tasks))
	noteDepth := func() { r.depth.Set(int64(len(ready))) }
	for id := range r.g.tasks {
		if r.nblock[id] == 0 {
			ready = append(ready, id)
			r.signal()
		}
	}
	noteDepth()
	push := func(d int) { ready = append(ready, d) }

	wg := sim.NewWaitGroup(rt.Engine())
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		c.Spawn(fmt.Sprintf("tg-worker%d", w), c.Node(), func(sub *core.Ctx) error {
			defer wg.Done()
			var last *Task
			for {
				if _, ok := r.tokens.Recv(sub.Proc()); !ok {
					return nil
				}
				if r.err != nil || len(ready) == 0 {
					continue
				}
				best := p.pick(ready, last)
				id := ready[best]
				ready[best] = ready[len(ready)-1]
				ready = ready[:len(ready)-1]
				noteDepth()
				saved := p.resident[id]
				r.st.AffinityPicks++
				r.st.SavedBytes += saved
				last = r.g.tasks[id]
				if !r.execute(sub, id, "affinity", saved) {
					continue
				}
				r.unblock(id, push)
				noteDepth()
				r.closeIfDone()
			}
		})
	}
	wg.Wait(c.Proc())
}

// prices is affinity placement's cache of each task's move price: the
// seconds to fetch the read bytes missing at the placement node, and the
// bytes already resident there. A price depends only on which of the
// task's exact read extents the node's staging cache holds (and whether
// their sources are released), so a task is repriced only after the
// residency watch reports a change to one of those extents.
type prices struct {
	r        *run
	moveSec  []float64
	resident []int64
	fresh    []bool // false: never priced, or a read extent changed since
}

func newPrices(r *run) *prices {
	n := len(r.g.tasks)
	return &prices{r: r, moveSec: make([]float64, n), resident: make([]int64, n), fresh: make([]bool, n)}
}

// watch is the residency watch: it marks the readers of k's extent for
// repricing.
func (p *prices) watch(k cache.Key) {
	p.r.g.readers(k.Src, k.Off, k.Len, func(id int) { p.fresh[id] = false })
}

// reprice recomputes one task's price from scratch: how many of its input
// bytes need no edge crossing right now (extents of higher-level sources
// staged, or in flight, in the node's cache) and the fetch time of the
// rest. The sum runs over the reads in declaration order, so the price is
// bit for bit the one a full rescan would give.
func (p *prices) reprice(id int) {
	var resident int64
	var moveSec float64
	rt, node := p.r.c.Runtime(), p.r.node
	for _, ex := range p.r.g.tasks[id].Reads {
		if ex.Buf == nil || ex.Len <= 0 || ex.Buf.Node() == node {
			continue // already at the staging level: free either way
		}
		res := rt.CacheResidentBytes(node, ex.Buf, ex.Off, ex.Len)
		resident += res
		moveSec += fetchSeconds(ex.Buf, node, ex.Len-res)
	}
	p.moveSec[id], p.resident[id], p.fresh[id] = moveSec, resident, true
}

// pick returns the index in ready of the task to place next: the lowest
// compute + move price, then the most read bytes shared with last, then
// the lowest ID. The overlap is only computed between tied prices.
func (p *prices) pick(ready []int, last *Task) int {
	best, bestAffin, affinKnown := -1, int64(0), false
	var bestScore float64
	for i, id := range ready {
		if !p.fresh[id] {
			p.reprice(id)
		}
		t := p.r.g.tasks[id]
		var computeSec float64
		if prof := p.r.o.Profile; prof != nil {
			if pt, ok := prof.Predict(t.Kind, t.Cost); ok {
				computeSec = pt.Seconds()
			}
		}
		s := computeSec + p.moveSec[id]
		if best < 0 || s < bestScore {
			best, bestScore, affinKnown = i, s, false
			continue
		}
		if s != bestScore {
			continue
		}
		if !affinKnown {
			bestAffin, affinKnown = readOverlap(p.r.g.tasks[ready[best]], last), true
		}
		if affin := readOverlap(t, last); affin > bestAffin || affin == bestAffin && id < ready[best] {
			best, bestAffin = i, affin
		}
	}
	return best
}

// readOverlap sums the bytes t's reads share with last's (0 without a
// previous task).
func readOverlap(t, last *Task) int64 {
	if last == nil {
		return 0
	}
	var n int64
	for _, ex := range t.Reads {
		for _, lx := range last.Reads {
			n += overlapBytes(ex, lx)
		}
	}
	return n
}
