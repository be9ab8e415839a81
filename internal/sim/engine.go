package sim

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Engine is a single-threaded discrete-event simulation scheduler.
//
// An Engine must be driven from a single goroutine: Spawn processes, then
// call Run (or RunUntil). While Run executes, processes may spawn further
// processes and schedule events; the engine guarantees that at most one
// process executes at any moment, so simulation state needs no locking.
//
// Dispatch hot path. Events live in a hand-rolled 4-ary min-heap of concrete
// event values (no container/heap, no interface{} boxing) in which
// consecutive pushes for one time share one entry (eventQueue), so
// scheduling a wakeup performs no allocation in steady state and a lockstep
// storm pays the heap once. When the clock advances to an instant, every
// event carrying that timestamp is drained from the heap in one pass into a
// ready ring and dispatched in sequence order; events scheduled *for the
// current instant while it is being dispatched* are appended directly to
// the ring and never touch the heap at all — the wake storms of FIFO
// resources, barriers and fair queues cost one append each.
// Timed callbacks (Engine.At / Engine.After) run inline in the dispatch
// loop; only full processes pay a resumption, a switch to the process's
// coroutine and back on the same thread. A process's coroutine is bound at
// its first resumption and, once the body returns, waits on a LIFO idle
// list for the next process to start; RunUntil ends every idle coroutine
// before it returns, so none outlives the run. None of this changes
// observable semantics: events still fire in exactly (time, sequence) order.
type Engine struct {
	now    Time
	seq    uint64
	events eventQueue

	// ready holds the current instant's dispatch batch in sequence order;
	// readyAt is the cursor of the next event to dispatch. The slice is
	// reused across instants, so steady-state dispatch does not allocate.
	ready   []event
	readyAt int

	procs   []*Proc // live (spawned but not finished) processes
	idle    []*coro // coroutines whose body returned, reused LIFO
	freeIDs []int   // recycled IDs of finished processes
	nextID  int
	spawned int64
	live    int
	running bool
	fatal   error

	fired     int64 // events dispatched (simulator-cost observability)
	callbacks int64 // of which ran on the inline callback fast path
	wall      time.Duration

	// trace, when non-nil, receives a line for every process resumption.
	// Used by determinism tests. Inline callbacks are not resumptions and
	// are not traced.
	trace func(t Time, p *Proc)
}

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetTrace installs a hook invoked each time a process is resumed.
// Pass nil to disable. Intended for tests.
func (e *Engine) SetTrace(fn func(t Time, p *Proc)) { e.trace = fn }

// Stats is the engine's lifetime cost profile: how many events it
// dispatched, on which path, and how fast in real time.
type Stats struct {
	// Events is the number of events dispatched: process resumptions plus
	// inline callbacks.
	Events int64
	// Callbacks is how many of those ran on the inline callback fast path
	// (no coroutine switch).
	Callbacks int64
	// Procs is the number of processes spawned over the engine's lifetime.
	// Finished processes are released, so this exceeds Live.
	Procs int64
	// Live is the number of processes spawned but not yet finished.
	Live int
	// Wall is the real time spent inside Run/RunUntil.
	Wall time.Duration
}

// EventsPerSec is the wall-clock dispatch rate: events per real second
// across all Run calls so far. Zero when the engine has not run.
func (s Stats) EventsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Events) / s.Wall.Seconds()
}

// Stats reports the engine's lifetime counters and wall-clock dispatch rate.
func (e *Engine) Stats() Stats {
	return Stats{
		Events:    e.fired,
		Callbacks: e.callbacks,
		Procs:     e.spawned,
		Live:      e.live,
		Wall:      e.wall,
	}
}

// yieldKind is what a process's coroutine reports when it switches back to
// the engine.
type yieldKind int

const (
	yieldBlocked yieldKind = iota // process parked (sleep or condition wait)
	yieldDone                     // process function returned
	yieldPanic                    // process panicked
)

// event is one scheduled dispatch: a process wakeup (p != nil) or an inline
// callback (fn != nil). Events order by (t, seq); seq is strictly increasing
// per schedule call, so equal-time events fire in scheduling order. Inside
// the queue, an entry with neither is a run's marker.
type event struct {
	t   Time
	seq uint64
	p   *Proc
	fn  func()
}

func eventLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventQueue holds the pending events in a 4-ary min-heap of concrete
// entries ordered by (t, seq). A wider node halves the tree depth of the
// binary layout, trading a few extra compares per level for fewer
// cache-missing swaps, and the concrete element type keeps push and pop free
// of the interface{} boxing container/heap would impose.
//
// An entry is a lone event or a run: the events of consecutive pushes for
// one time, kept in a buffer outside the heap and represented in it by a
// marker keyed by the run's first event. A lockstep storm (every workgroup
// scheduling its next row one period ahead) pays the heap's log once per run
// instead of once per event. No other push lands between a run's events, so
// their sequence numbers are consecutive among the queue's, and emptying the
// run whole where its marker pops keeps the exact (t, seq) order.
type eventQueue struct {
	heap []event
	// open is 1 + the heap index of the latest push's entry, which a push
	// for the same time joins; 0 once a pop may have moved it.
	open  int
	runs  []eventRun // live runs; while open names a marker, its run is last
	spare [][]event  // emptied run buffers, reused by the next runs
}

type eventRun struct {
	seq uint64 // the marker's key: the run's first sequence number
	ev  []event
}

func (q *eventQueue) len() int { return len(q.heap) }

func (q *eventQueue) push(ev event) {
	// With the open entry alone in the heap, a push for its time lands
	// under the root after one compare and the pops sift nothing, which
	// costs less than a run: two holders of a resource releasing together.
	if i := q.open - 1; len(q.heap) > 1 && i >= 0 && q.heap[i].t == ev.t {
		q.join(i, ev)
		return
	}
	q.heap = append(q.heap, ev)
	i := len(q.heap) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(&q.heap[i], &q.heap[parent]) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
	q.open = i + 1
}

// join appends ev to the run of the entry at heap index i, first turning a
// lone event there into a run of one under a marker with the same key.
func (q *eventQueue) join(i int, ev event) {
	if head := &q.heap[i]; head.p != nil || head.fn != nil {
		var buf []event
		if n := len(q.spare); n > 0 {
			buf = q.spare[n-1]
			q.spare[n-1] = nil
			q.spare = q.spare[:n-1]
		}
		q.runs = append(q.runs, eventRun{seq: head.seq, ev: append(buf, *head)})
		head.p, head.fn = nil, nil
	}
	r := &q.runs[len(q.runs)-1]
	r.ev = append(r.ev, ev)
}

// pop removes the earliest entry: a lone event, or a run's marker, whose
// events takeRun hands over.
func (q *eventQueue) pop() event {
	q.open = 0
	ev := q.heap[0]
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap[n] = event{} // drop the proc/closure references
	q.heap = q.heap[:n]
	if n > 1 {
		q.siftDown()
	}
	return ev
}

func (q *eventQueue) siftDown() {
	n := len(q.heap)
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(&q.heap[c], &q.heap[min]) {
				min = c
			}
		}
		if !eventLess(&q.heap[min], &q.heap[i]) {
			return
		}
		q.heap[i], q.heap[min] = q.heap[min], q.heap[i]
		i = min
	}
}

// takeRun appends the events of the run whose marker has key seq to ready
// and recycles its buffer. Lockstep chains keep few times pending, so live
// runs are few (at most three in the benchmark's workloads) and a scan
// finds it.
func (q *eventQueue) takeRun(seq uint64, ready []event) []event {
	for k := range q.runs {
		if q.runs[k].seq != seq {
			continue
		}
		buf := q.runs[k].ev
		ready = append(ready, buf...)
		clear(buf) // drop the proc/closure references
		q.spare = append(q.spare, buf[:0])
		last := len(q.runs) - 1
		q.runs[k] = q.runs[last]
		q.runs[last] = eventRun{}
		q.runs = q.runs[:last]
		return ready
	}
	panic("sim: run marker without a run")
}

// enqueue stamps the event with a clamped time and the next sequence number
// and routes it: events for the instant currently being dispatched go
// straight onto the ready ring (they cannot precede anything already there,
// because their sequence numbers are larger), everything else into the heap.
func (e *Engine) enqueue(ev event, t Time) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev.t, ev.seq = t, e.seq
	if e.running && t == e.now {
		e.ready = append(e.ready, ev)
		return
	}
	e.events.push(ev)
}

// schedule enqueues a wakeup for p at time t. It panics if p already has a
// pending wakeup: primitives in this package never double-schedule, so a
// double schedule indicates a bug in client code (e.g. waking a process that
// is not blocked on the caller's primitive).
func (e *Engine) schedule(p *Proc, t Time) {
	if p.state == procFinished {
		panic(fmt.Sprintf("sim: scheduling finished process %q", p.name))
	}
	if p.pending {
		panic(fmt.Sprintf("sim: double-scheduling process %q", p.name))
	}
	p.pending = true
	e.enqueue(event{p: p}, t)
}

// wake schedules p to resume at the current time. It is the mechanism used
// by synchronization primitives to hand control to a blocked process.
func (e *Engine) wake(p *Proc) { e.schedule(p, e.now) }

// At schedules fn to run at virtual time t (clamped to now), inline in the
// dispatch loop: no coroutine switch, just a heap pop and a call. It is the
// fast path for leaf, non-blocking work — timer chains, arrival generators,
// completion notifications. fn must not block: it has no Proc, so it may
// read Now, schedule further callbacks, Spawn processes, Fire latches, Put
// tokens or AcquireAsync, but never Sleep, Acquire, Wait, Take or PutWait.
// Code that blocks keeps full Proc semantics.
func (e *Engine) At(t Time, fn func()) {
	if fn == nil {
		panic("sim: Engine.At with nil callback")
	}
	e.enqueue(event{fn: fn}, t)
}

// After schedules fn to run d from now on the inline callback fast path;
// see At. A non-positive delay runs fn after every event already scheduled
// at the current instant.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// Peek returns the timestamp of the next pending event, or false when the
// queue is empty. It is meaningful between Run/RunUntil calls — the paced
// serve driver uses it to decide whether a resumed RunUntil has more work
// or the simulation has drained.
func (e *Engine) Peek() (Time, bool) {
	if e.events.len() == 0 {
		return 0, false
	}
	return e.events.heap[0].t, true
}

// DeadlockError reports that the event queue drained while processes were
// still blocked on conditions that nothing can ever signal.
type DeadlockError struct {
	At      Time
	Blocked []string // names of the stuck processes
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d process(es) blocked: %s",
		d.At, len(d.Blocked), strings.Join(d.Blocked, ", "))
}

// Run executes events until the queue drains. It returns nil when every
// spawned process has finished, a *DeadlockError when processes remain
// blocked forever, or the panic value (as an error) if a process panicked.
func (e *Engine) Run() error { return e.RunUntil(-1) }

// RunUntil executes events with timestamps <= deadline (a negative deadline
// means "no limit"). If the deadline stops the run early while processes are
// still runnable, RunUntil returns nil and the simulation may be resumed by
// calling RunUntil again with a later deadline.
func (e *Engine) RunUntil(deadline Time) error {
	if e.running {
		panic("sim: Engine.Run called reentrantly")
	}
	e.running = true
	start := time.Now()
	defer func() {
		e.running = false
		e.stopIdle()
		e.wall += time.Since(start)
	}()

	for {
		// Drain the current instant's batch. Dispatching may append more
		// same-instant events to the ring; they run in this same pass, in
		// sequence order.
		for e.readyAt < len(e.ready) {
			ev := e.ready[e.readyAt]
			e.ready[e.readyAt] = event{}
			e.readyAt++
			if err := e.dispatch(ev); err != nil {
				return err
			}
		}
		e.ready = e.ready[:0]
		e.readyAt = 0
		if e.events.len() == 0 {
			break
		}
		t := e.events.heap[0].t
		if deadline >= 0 && t > deadline {
			e.now = deadline
			return nil
		}
		e.now = t
		// Batch pop: every event at this instant leaves the queue in one
		// pass (in sequence order), so a same-timestamp storm pays the
		// heap's log once per entry popped and nothing for re-wakes.
		for e.events.len() > 0 && e.events.heap[0].t == t {
			if ev := e.events.pop(); ev.p != nil || ev.fn != nil {
				e.ready = append(e.ready, ev)
			} else {
				e.ready = e.events.takeRun(ev.seq, e.ready)
			}
		}
	}
	if e.live > 0 {
		d := &DeadlockError{At: e.now}
		for _, p := range e.procs {
			if p.state == procBlocked {
				d.Blocked = append(d.Blocked, p.name)
			}
		}
		sort.Strings(d.Blocked)
		return d
	}
	return nil
}

// dispatch fires one event: an inline callback, or a process resumption,
// a switch to the process's coroutine that returns when the process parks
// or finishes.
func (e *Engine) dispatch(ev event) error {
	e.fired++
	if ev.fn != nil {
		e.callbacks++
		ev.fn()
		return nil
	}
	p := ev.p
	p.pending = false
	p.state = procRunning
	if e.trace != nil {
		e.trace(e.now, p)
	}
	if p.co == nil {
		e.bind(p)
	}
	switch kind, _ := p.co.next(); kind {
	case yieldBlocked:
		// The process parked itself; its next wakeup (if any) is already
		// queued or held by a primitive's wait list.
	case yieldDone:
		e.release(p)
	case yieldPanic:
		e.fatal = p.co.err
		e.release(p)
		return e.fatal
	}
	return nil
}

// bind gives p, at its first resumption, the most recently idled coroutine,
// or a new one when none is idle.
func (e *Engine) bind(p *Proc) {
	if n := len(e.idle); n > 0 {
		p.co = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		p.co = newCoro()
	}
	p.co.p = p
}

// stopIdle ends every idle coroutine. A coroutine still running a body (a
// process blocked past the deadline or in a deadlock) is left suspended.
func (e *Engine) stopIdle() {
	for i, c := range e.idle {
		c.stop()
		e.idle[i] = nil
	}
	e.idle = e.idle[:0]
}

// release retires a finished process: it leaves the live table, its ID
// returns to the free list and its coroutine to the idle list, so a long run
// spawning short-lived processes (spawned tasks, serve-tier jobs)
// holds memory proportional to the processes alive, not to every process
// that ever existed.
func (e *Engine) release(p *Proc) {
	p.state = procFinished
	e.live--
	last := len(e.procs) - 1
	e.procs[p.slot] = e.procs[last]
	e.procs[p.slot].slot = p.slot
	e.procs[last] = nil
	e.procs = e.procs[:last]
	e.freeIDs = append(e.freeIDs, p.id)
	p.slot = -1
	p.co.p = nil
	e.idle = append(e.idle, p.co)
	p.co, p.fn = nil, nil
}
