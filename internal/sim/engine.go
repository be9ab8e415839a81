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
// event values (no container/heap, no interface{} boxing), so scheduling a
// wakeup performs no allocation in steady state. When the clock advances to
// an instant, every event carrying that timestamp is drained from the heap
// in one pass into a ready ring and dispatched in sequence order; events
// scheduled *for the current instant while it is being dispatched* are
// appended directly to the ring and never touch the heap at all — the wake
// storms of FIFO resources, barriers and fair queues cost one append each.
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
	events eventHeap

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
// per schedule call, so equal-time events fire in scheduling order.
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

// eventHeap is a 4-ary min-heap of concrete event values. A wider node
// halves the tree depth of the binary layout, trading a few extra compares
// per level for fewer cache-missing swaps — the classic d-ary win for
// DES event queues — and the concrete element type keeps push/pop free of
// the interface{} boxing allocation container/heap would impose.
type eventHeap struct{ ev []event }

func (h *eventHeap) len() int { return len(h.ev) }

func (h *eventHeap) push(ev event) {
	h.ev = append(h.ev, ev)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(&h.ev[i], &h.ev[parent]) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	ev := h.ev[0]
	n := len(h.ev) - 1
	h.ev[0] = h.ev[n]
	h.ev[n] = event{} // drop the proc/closure references
	h.ev = h.ev[:n]
	if n > 1 {
		h.siftDown()
	}
	return ev
}

func (h *eventHeap) siftDown() {
	n := len(h.ev)
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
			if eventLess(&h.ev[c], &h.ev[min]) {
				min = c
			}
		}
		if !eventLess(&h.ev[min], &h.ev[i]) {
			return
		}
		h.ev[i], h.ev[min] = h.ev[min], h.ev[i]
		i = min
	}
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
// read Now, schedule further callbacks, Spawn processes, Fire latches or use
// TrySend/TryRecv, but never Sleep, Acquire, Wait, Send or Recv. Code that
// blocks keeps full Proc semantics.
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
	return e.events.ev[0].t, true
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
		t := e.events.ev[0].t
		if deadline >= 0 && t > deadline {
			e.now = deadline
			return nil
		}
		e.now = t
		// Batch pop: every event at this instant leaves the heap in one
		// pass (in sequence order), so a same-timestamp storm pays the
		// heap's log once per event popped and nothing for re-wakes.
		for e.events.len() > 0 && e.events.ev[0].t == t {
			e.ready = append(e.ready, e.events.pop())
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
// spawning short-lived processes (per-hop transfer procs, serve-tier jobs)
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
