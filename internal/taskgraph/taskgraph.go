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
// improves as the run progresses. The ready tasks wait in a heap ordered
// by price, and a task is repriced only when it is readied or the
// runtime's residency watch reports that one of its read extents entered
// or left the staging cache, so a pick reprices just those tasks and then
// reads only the tasks tied at the lowest price, not the whole ready list.
//
// Everything is deterministic: candidate scanning, scoring, and
// tie-breaking depend only on graph order and simulation state, so repeated
// runs with the same seed produce byte-identical schedules.
package taskgraph

import (
	"fmt"
	"math"
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

// Width returns the worker-pool width Run uses for a graph of more tasks
// than workers: Workers, or 2 when unset.
func (o Options) Width() int {
	if o.Workers < 1 {
		return 2
	}
	return o.Workers
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

	// ready counts the ready tasks no worker has taken yet; an idle worker
	// waits on it, and closing it (all done, or first error) releases
	// every idle worker.
	ready     *sim.Tokens
	err       error // the first task error; later tasks are skipped
	completed int
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
	r := &run{g: g, c: c, o: o, st: st, node: o.Node, workers: min(o.Width(), len(g.tasks)),
		nblock: make([]int, len(g.tasks)), ready: sim.NewTokens(c.Proc().Engine())}
	if r.node == nil {
		r.node = c.Node()
	}
	for i, t := range g.tasks {
		r.nblock[i] = t.nblock
	}
	policy(r)
	return st, r.err
}

// work runs the worker pool both policies share. push hands the policy a
// ready task, naming the worker whose completion readied it (initially
// ready tasks are dealt round-robin in program order); take places a ready
// task for idle worker w, naming the policy that placed it and the input
// bytes it found resident. Workers run until every task has completed or
// one has failed.
func (r *run) work(push func(w, id int), take func(w int) (id int, policy string, saved int64, ok bool)) {
	k := 0
	for id := range r.g.tasks {
		if r.nblock[id] == 0 {
			push(k%r.workers, id)
			k++
			r.ready.Put()
		}
	}
	c := r.c
	wg := sim.NewWaitGroup(c.Runtime().Engine())
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		c.Spawn(fmt.Sprintf("tg-worker%d", w), c.Node(), func(sub *core.Ctx) error {
			defer wg.Done()
			for r.ready.Take(sub.Proc()) {
				id, policy, saved, ok := take(w)
				if !ok || !r.execute(sub, id, policy, saved) {
					continue
				}
				for _, d := range r.g.tasks[id].outs {
					r.nblock[d]--
					if r.nblock[d] == 0 {
						push(w, d)
						r.ready.Put()
					}
				}
				if r.completed == len(r.g.tasks) {
					r.ready.Close()
				}
			}
			return nil
		})
	}
	wg.Wait(c.Proc())
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
		r.ready.Close()
		return false
	}
	if r.o.Profile != nil {
		r.o.Profile.Record(t.Kind, t.Cost, sub.Proc().Now()-start)
	}
	r.completed++
	return true
}

// runStealing is the locality-blind baseline: per-worker deques, owners
// popping their own tails and stealing from siblings when dry (sched.Take's
// victim order with no other class) — the same topology every app's
// bespoke scheduler used. A readied task lands on its worker's own queue:
// successors follow their producer unless stolen. The deques are attached
// at the placement node, whose queue-depth gauge reads them.
func (r *run) runStealing() {
	queues := make([]*sched.Deque[int], r.workers)
	for i := range queues {
		queues[i] = sched.NewDeque[int](fmt.Sprintf("tg%d", i))
	}
	detach := core.WatchDeques(r.c, r.node, queues)
	defer detach()
	r.work(func(w, id int) { queues[w].PushTail(id) }, func(w int) (int, string, int64, bool) {
		id, src, ok := sched.Take(queues, w, nil)
		if src == sched.FromOwn {
			return id, "queue", 0, ok
		}
		return id, "steal", 0, ok
	})
	r.st.Pops, r.st.Steals = sched.TotalStats(queues)
}

// runAffinity is the residency-aware policy: each idle worker takes the
// ready task with the lowest estimated compute + bytes-to-move price. Ties
// break toward the task overlapping the worker's previous inputs (locality
// bias), then the lowest task ID, so the schedule is a pure function of
// graph order and cache state: the pick is the minimum of (price,
// -overlap, id). The ready tasks wait in prices' heap, attached at the
// placement node as its work queue, which the node's queue-depth gauge
// reads.
func (r *run) runAffinity() {
	p := newPrices(r)
	detach := r.c.Runtime().WatchResidency(r.node, p.watch)
	defer detach()
	detachReady := r.c.Runtime().AttachQueues(r.node, p)
	defer detachReady()
	last := make([]*Task, r.workers) // each worker's previous task
	r.work(func(_, id int) { p.push(id) }, func(w int) (int, string, int64, bool) {
		if p.Len() == 0 {
			return 0, "", 0, false
		}
		id := p.pick(last[w])
		_, saved := p.move(id)
		r.st.AffinityPicks++
		r.st.SavedBytes += saved
		last[w] = r.g.tasks[id]
		return id, "affinity", saved, true
	})
}

// prices is affinity placement's ready set: an indexed binary min-heap of
// the ready tasks on (price, ID), where a task's price is the profile's
// compute estimate plus its move price, the seconds to fetch the read
// bytes missing at the placement node. A move price depends only on which
// of the task's exact read extents the node's staging cache holds (and
// whether their sources are released), so without a profile a ready task
// is queued for repricing only when it is readied or the residency watch
// reports a change to one of those extents, and the next pick reprices
// the queued tasks and restores their heap order. It is the policy's work
// queue on the tree (a sched.Monitor).
type prices struct {
	r     *run
	tasks []priced // per task
	heap  []int32  // the ready task IDs, ordered by less
	// queue holds the ready tasks whose price is stale. A pick empties it
	// before choosing, and its tie walk reuses the array.
	queue []int32
}

// priced is one task's entry in prices.
type priced struct {
	price  float64 // the heap key
	pos    int32   // index in heap; -1 before the task is ready and once it is placed
	queued bool    // in queue: price is stale
}

func newPrices(r *run) *prices {
	n := len(r.g.tasks)
	p := &prices{r: r, tasks: make([]priced, n), heap: make([]int32, 0, n), queue: make([]int32, 0, n)}
	for i := range p.tasks {
		p.tasks[i].pos = -1
	}
	return p
}

// Name names the ready set in queue reports.
func (p *prices) Name() string { return "tg-ready" }

// Len returns the number of ready tasks not yet placed.
func (p *prices) Len() int { return len(p.heap) }

// push adds a readied task to the heap. It has no price yet, so it sorts
// last until the next pick gives it its first.
func (p *prices) push(id int) {
	t := &p.tasks[id]
	t.price, t.pos = math.Inf(1), int32(len(p.heap))
	p.heap = append(p.heap, int32(id))
	p.up(int(t.pos))
	p.stale(id)
}

// watch is the residency watch: it queues the ready readers of k's extent
// for repricing. It runs inside the cache change, so it prices nothing.
func (p *prices) watch(k cache.Key) {
	p.r.g.readers(k.Src, k.Off, k.Len, func(id int) {
		if p.tasks[id].pos >= 0 {
			p.stale(id)
		}
	})
}

// stale queues a ready task for repricing at the next pick.
func (p *prices) stale(id int) {
	if t := &p.tasks[id]; !t.queued {
		t.queued = true
		p.queue = append(p.queue, int32(id))
	}
}

// move prices one task's reads anew: how many of its input bytes
// need no edge crossing right now (extents of higher-level sources staged,
// or in flight, in the node's cache) and the fetch time of the rest. The
// sum runs over the reads in declaration order, so the price is bit for
// bit the one a full rescan gives.
func (p *prices) move(id int) (moveSec float64, resident int64) {
	rt, node := p.r.c.Runtime(), p.r.node
	for _, ex := range p.r.g.tasks[id].Reads {
		if ex.Buf == nil || ex.Len <= 0 || ex.Buf.Node() == node {
			continue // already at the staging level: free either way
		}
		res := rt.CacheResidentBytes(node, ex.Buf, ex.Off, ex.Len)
		resident += res
		moveSec += fetchSeconds(ex.Buf, node, ex.Len-res)
	}
	return moveSec, resident
}

// reprice recomputes one task's price: the profile's compute estimate (0
// without one, or while the task's kind has too few samples) plus its
// move price.
func (p *prices) reprice(id int) {
	var computeSec float64
	if prof := p.r.o.Profile; prof != nil {
		t := p.r.g.tasks[id]
		if pt, ok := prof.Predict(t.Kind, t.Cost); ok {
			computeSec = pt.Seconds()
		}
	}
	moveSec, _ := p.move(id)
	t := &p.tasks[id]
	t.price, t.queued = computeSec+moveSec, false
}

// settle brings every heap key up to date before a pick. Without a
// profile it reprices the queued tasks and moves each to its place. With
// one, every task completed since the last pick refitted its kind's
// compute model, so every ready task is repriced and the heap rebuilt:
// such a pick costs O(ready), as the linear scan did.
func (p *prices) settle() {
	if p.r.o.Profile != nil {
		for _, id := range p.heap {
			p.reprice(int(id))
		}
		for i := len(p.heap)/2 - 1; i >= 0; i-- {
			p.down(i)
		}
	} else {
		for _, id := range p.queue {
			p.reprice(int(id))
			p.fix(int(p.tasks[id].pos))
		}
	}
	p.queue = p.queue[:0]
}

// pick removes and returns the task to place next: the lowest price, then
// the most read bytes shared with last, then the lowest ID. The entries
// at the lowest price form a subtree of the heap that holds its root, so
// the tie walk visits only that subtree and computes overlaps only for
// its entries; without a previous task, or without a tie, the root wins.
func (p *prices) pick(last *Task) int {
	p.settle()
	best := p.heap[0]
	if last != nil {
		low := p.tasks[best].price
		ties := append(p.queue, 0) // heap positions priced low
		for k := 0; k < len(ties); k++ {
			for c := 2*ties[k] + 1; c <= 2*ties[k]+2 && int(c) < len(p.heap); c++ {
				if p.tasks[p.heap[c]].price == low {
					ties = append(ties, c)
				}
			}
		}
		if len(ties) > 1 {
			bestAffin := int64(-1)
			for _, i := range ties {
				id := p.heap[i]
				if affin := readOverlap(p.r.g.tasks[id], last); affin > bestAffin || affin == bestAffin && id < best {
					best, bestAffin = id, affin
				}
			}
		}
	}
	p.remove(best)
	return int(best)
}

// less orders the heap by (price, ID).
func (p *prices) less(a, b int32) bool {
	pa, pb := p.tasks[a].price, p.tasks[b].price
	return pa < pb || pa == pb && a < b
}

// swap exchanges two heap positions and records the tasks' new ones.
func (p *prices) swap(i, j int) {
	h := p.heap
	h[i], h[j] = h[j], h[i]
	p.tasks[h[i]].pos, p.tasks[h[j]].pos = int32(i), int32(j)
}

// up moves the entry at position i toward the root past every parent it
// orders before.
func (p *prices) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !p.less(p.heap[i], p.heap[parent]) {
			return
		}
		p.swap(i, parent)
		i = parent
	}
}

// down moves the entry at position i toward the leaves past every child
// that orders before it, and reports whether it moved.
func (p *prices) down(i int) bool {
	start, n := i, len(p.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && p.less(p.heap[c+1], p.heap[c]) {
			c++
		}
		if !p.less(p.heap[c], p.heap[i]) {
			break
		}
		p.swap(i, c)
		i = c
	}
	return i > start
}

// fix restores the heap order after the key at position i changed.
func (p *prices) fix(i int) {
	if !p.down(i) {
		p.up(i)
	}
}

// remove takes a task out of the heap.
func (p *prices) remove(id int32) {
	i, n := int(p.tasks[id].pos), len(p.heap)-1
	p.swap(i, n)
	p.heap = p.heap[:n]
	p.tasks[id].pos = -1
	if i < n {
		p.fix(i)
	}
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
