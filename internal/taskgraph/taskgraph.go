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
// improves as the run progresses.
//
// Everything is deterministic: candidate scanning, scoring, and
// tie-breaking depend only on graph order and simulation state, so repeated
// runs with the same seed produce byte-identical schedules.
package taskgraph

import (
	"fmt"

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

// overlaps reports whether two extents intersect in the same buffer.
func (e Extent) overlaps(o Extent) bool {
	if e.Buf == nil || o.Buf == nil || e.Buf.ID() != o.Buf.ID() {
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
}

// ID returns the task's position in program order.
func (t *Task) ID() int { return t.id }

// Graph is an extent-declared task DAG under construction.
type Graph struct {
	tasks []*Task
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
	for _, prev := range g.tasks {
		if conflicts(prev, t) {
			prev.outs = append(prev.outs, t.id)
			t.nblock++
		}
	}
	g.tasks = append(g.tasks, t)
	return t
}

// conflicts reports whether t must wait for prev: any RAW, WAW or WAR
// overlap between their declared extents.
func conflicts(prev, t *Task) bool {
	for _, w := range prev.Writes {
		for _, r := range t.Reads {
			if w.overlaps(r) {
				return true
			}
		}
		for _, w2 := range t.Writes {
			if w.overlaps(w2) {
				return true
			}
		}
	}
	for _, r := range prev.Reads {
		for _, w := range t.Writes {
			if r.overlaps(w) {
				return true
			}
		}
	}
	return false
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

// firstErr latches the first error a worker reports.
type firstErr struct{ err error }

func (f *firstErr) record(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}
func (f *firstErr) failed() bool { return f.err != nil }

// Run executes the graph on a pool of workers spawned at c's node and
// returns dispatch statistics plus the first task error (remaining tasks
// are skipped once an error is observed). Placement decisions are counted
// in the metrics registry (northup_sched_* series) and emitted as trace
// instants on the queue track, so both policies are visible in the
// existing tooling.
func (g *Graph) Run(c *core.Ctx, o Options) (*Stats, error) {
	st := &Stats{Tasks: len(g.tasks)}
	if len(g.tasks) == 0 {
		return st, nil
	}
	workers := o.Workers
	if workers < 1 {
		workers = 2
	}
	if workers > len(g.tasks) {
		workers = len(g.tasks)
	}
	node := o.Node
	if node == nil {
		node = c.Node()
	}

	rt := c.Runtime()
	engine := c.Proc().Engine()

	nblock := make([]int, len(g.tasks))
	for i, t := range g.tasks {
		nblock[i] = t.nblock
	}

	// tokens carries one send per task that becomes ready; its capacity
	// covers the whole graph so sends never block, and closing it (all done,
	// or first error) releases every idle worker.
	tokens := sim.NewChan(engine, len(g.tasks))
	closed := false
	closeTokens := func() {
		if !closed {
			closed = true
			tokens.Close()
		}
	}
	signal := func() {
		if !closed {
			tokens.TrySend(struct{}{})
		}
	}

	var fe firstErr
	completed := 0

	depthSlot := rt.NewQueueDepthSlot(node.ID)
	defer depthSlot.Close()

	if o.Affinity {
		g.runAffinity(c, o, st, node, nblock, tokens, &fe, &completed,
			closeTokens, signal, depthSlot)
	} else {
		g.runStealing(c, o, st, node, nblock, tokens, &fe, &completed,
			closeTokens, signal, depthSlot)
	}
	return st, fe.err
}

// execute runs one placed task on a worker context, feeding the profile and
// emitting the placement telemetry. It returns false when the run must
// abort.
func (g *Graph) execute(sub *core.Ctx, o Options, node *topo.Node, id int,
	policy string, saved int64, fe *firstErr) bool {

	t := g.tasks[id]
	sub.Runtime().NoteSchedPlacement(policy, node.ID, saved)
	sub.TraceInstant(trace.TrackQueue, "place", int64(t.id))
	start := sub.Proc().Now()
	err := sub.Task(t.Kind, int64(t.Cost), t.Run)
	if err != nil {
		fe.record(err)
		return false
	}
	if o.Profile != nil {
		o.Profile.Record(t.Kind, t.Cost, sub.Proc().Now()-start)
	}
	return true
}

// runStealing is the locality-blind baseline: per-worker deques, initially
// round-robin partitioned, owners popping their own tails and stealing from
// siblings when dry — the same topology every app's bespoke scheduler used.
func (g *Graph) runStealing(c *core.Ctx, o Options, st *Stats, node *topo.Node,
	nblock []int, tokens *sim.Chan, fe *firstErr, completed *int,
	closeTokens, signal func(), depthSlot *core.QueueDepthSlot) {

	workers := o.Workers
	if workers < 1 {
		workers = 2
	}
	if workers > len(g.tasks) {
		workers = len(g.tasks)
	}
	queues := make([]*sched.Deque[int], workers)
	for i := range queues {
		queues[i] = sched.NewDeque[int](fmt.Sprintf("tg%d", i))
	}
	detach := core.WatchDeques(c, node, depthSlot, queues)
	defer detach()

	// Initially ready tasks spread round-robin in program order, the layout
	// sched.Partition gives the apps' hand-wired queues.
	k := 0
	for id := range g.tasks {
		if nblock[id] == 0 {
			queues[k%workers].PushTail(id)
			k++
			signal()
		}
	}

	wg := sim.NewWaitGroup(c.Runtime().Engine())
	for w := 0; w < workers; w++ {
		wg.Add(1)
		w := w
		own := queues[w]
		c.Spawn(fmt.Sprintf("tg-worker%d", w), c.Node(), func(sub *core.Ctx) error {
			defer wg.Done()
			for {
				if _, ok := tokens.Recv(sub.Proc()); !ok {
					return nil
				}
				if fe.failed() {
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
				if !g.execute(sub, o, node, id, policy, 0, fe) {
					closeTokens()
					continue
				}
				*completed++
				// Newly unblocked tasks land on the completing worker's own
				// queue: successors follow their producer unless stolen.
				for _, d := range g.tasks[id].outs {
					nblock[d]--
					if nblock[d] == 0 {
						own.PushTail(d)
						signal()
					}
				}
				if *completed == len(g.tasks) {
					closeTokens()
				}
			}
		})
	}
	wg.Wait(c.Proc())
	st.Pops, st.Steals = sched.TotalStats(queues)
}

// runAffinity is the residency-aware policy: a shared ready list each idle
// worker scores in full, picking the candidate with the lowest estimated
// compute + bytes-to-move price. Ties break toward the task overlapping the
// worker's previous inputs (locality bias), then the lowest task ID, so the
// schedule is a pure function of graph order and cache state.
func (g *Graph) runAffinity(c *core.Ctx, o Options, st *Stats, node *topo.Node,
	nblock []int, tokens *sim.Chan, fe *firstErr, completed *int,
	closeTokens, signal func(), depthSlot *core.QueueDepthSlot) {

	workers := o.Workers
	if workers < 1 {
		workers = 2
	}
	if workers > len(g.tasks) {
		workers = len(g.tasks)
	}
	rt := c.Runtime()

	var ready []int
	noteDepth := func() { depthSlot.Set(int64(len(ready))) }
	for id := range g.tasks {
		if nblock[id] == 0 {
			ready = append(ready, id)
			signal()
		}
	}
	noteDepth()

	// residency returns how many of t's declared input bytes need no edge
	// crossing right now: extents already living at the staging level, plus
	// extents of higher-level sources staged (or in flight) in node's cache.
	// missing is the complement — what a placement would have to move.
	residency := func(t *Task) (resident, missing int64, moveSec float64) {
		for _, ex := range t.Reads {
			if ex.Buf == nil || ex.Len <= 0 {
				continue
			}
			if ex.Buf.Node() == node {
				continue // already at the staging level: free either way
			}
			r := rt.CacheResidentBytes(node, ex.Buf, ex.Off, ex.Len)
			resident += r
			miss := ex.Len - r
			missing += miss
			moveSec += fetchSeconds(ex.Buf, node, miss)
		}
		return resident, missing, moveSec
	}

	score := func(t *Task) (float64, int64) {
		var computeSec float64
		if o.Profile != nil {
			if pt, ok := o.Profile.Predict(t.Kind, t.Cost); ok {
				computeSec = pt.Seconds()
			}
		}
		resident, _, moveSec := residency(t)
		return computeSec + moveSec, resident
	}

	wg := sim.NewWaitGroup(rt.Engine())
	for w := 0; w < workers; w++ {
		wg.Add(1)
		w := w
		c.Spawn(fmt.Sprintf("tg-worker%d", w), c.Node(), func(sub *core.Ctx) error {
			defer wg.Done()
			var last *Task
			for {
				if _, ok := tokens.Recv(sub.Proc()); !ok {
					return nil
				}
				if fe.failed() || len(ready) == 0 {
					continue
				}
				// Score every ready candidate; lowest price wins.
				best, bestSaved := -1, int64(0)
				var bestScore float64
				var bestAffin int64
				for i, id := range ready {
					t := g.tasks[id]
					s, resident := score(t)
					affin := int64(0)
					if last != nil {
						for _, ex := range t.Reads {
							for _, lx := range last.Reads {
								affin += overlapBytes(ex, lx)
							}
						}
					}
					take := best < 0 || s < bestScore ||
						(s == bestScore && (affin > bestAffin ||
							(affin == bestAffin && ready[best] > id)))
					if take {
						best, bestScore, bestAffin, bestSaved = i, s, affin, resident
					}
				}
				id := ready[best]
				ready = append(ready[:best], ready[best+1:]...)
				noteDepth()
				st.AffinityPicks++
				st.SavedBytes += bestSaved
				last = g.tasks[id]
				if !g.execute(sub, o, node, id, "affinity", bestSaved, fe) {
					closeTokens()
					continue
				}
				*completed++
				for _, d := range g.tasks[id].outs {
					nblock[d]--
					if nblock[d] == 0 {
						ready = append(ready, d)
						signal()
					}
				}
				noteDepth()
				if *completed == len(g.tasks) {
					closeTokens()
				}
			}
		})
	}
	wg.Wait(c.Proc())
}
