package sim

import "fmt"

type procState int

const (
	procBlocked procState = iota // parked, waiting for a wakeup
	procRunning
	procFinished
)

// Proc is a simulated process: a function whose blocking operations take
// virtual time instead of real time. It runs on a coroutine that the engine
// switches to and back from, so the engine and its processes take turns on
// one thread. All Proc methods must be called from the process's own
// function (the one passed to Spawn).
type Proc struct {
	e       *Engine
	name    string
	id      int
	slot    int           // index in the engine's live-process table; -1 once finished
	fn      func(p *Proc) // the body, run on co
	co      *coro         // bound at the first resumption, idled at the finish
	state   procState
	pending bool // a wakeup event for this proc is queued in the engine
}

// Spawn creates a process executing fn and schedules its start at the
// current virtual time. It may be called before Run (to seed the simulation)
// or from inside another process (or an At/After callback).
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	id := e.nextID
	if n := len(e.freeIDs); n > 0 {
		id = e.freeIDs[n-1]
		e.freeIDs = e.freeIDs[:n-1]
	} else {
		e.nextID++
	}
	p := &Proc{
		e:    e,
		name: name,
		id:   id,
		slot: len(e.procs),
		fn:   fn,
	}
	e.procs = append(e.procs, p)
	e.spawned++
	e.live++
	e.schedule(p, e.now)
	return p
}

// Name returns the name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// ID returns a small integer unique among the engine's live processes.
// IDs of finished processes are recycled (deterministically), so a lifetime
// of short-lived spawns reuses a compact ID range.
func (p *Proc) ID() int { return p.id }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Sleep advances this process's local time by d. Other processes run in the
// meantime. A non-positive duration yields the processor for one scheduling
// round without advancing the clock.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.e.schedule(p, p.e.now+d)
	p.park()
}

// park blocks the process until some event or primitive wakes it.
// The caller must have arranged for a future wakeup (an event in the heap or
// membership in a primitive's wait list); otherwise the run ends in deadlock.
func (p *Proc) park() {
	p.state = procBlocked
	p.co.yield(yieldBlocked)
}

// block parks the process with no scheduled wakeup. Primitives call it after
// adding p to their wait list.
func (p *Proc) block() { p.park() }

// coro is a reusable coroutine that runs process bodies one after another.
// The engine switches to it with next; the body switches back through yield
// each time it parks. When a body returns, the coroutine yields yieldDone
// (yieldPanic if it panicked) and stays suspended on the engine's idle list
// until the next process to start binds it, or until stop ends it.
type coro struct {
	next  func() (yieldKind, bool)
	stop  func()
	yield func(yieldKind) bool
	p     *Proc // the process whose body runs on it; nil while idle
	err   error // the last body's panic, after a yieldPanic
}

func newCoro() *coro {
	c := new(coro)
	c.next, c.stop = pull(func(yield func(yieldKind) bool) {
		c.yield = yield
		for yield(c.run()) {
		}
	})
	return c
}

// run executes the bound process's body. A panic is recovered on the
// coroutine, so it stays reusable, and reported as an error naming the
// process.
func (c *coro) run() (kind yieldKind) {
	p := c.p
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
			kind = yieldPanic
		}
	}()
	p.fn(p)
	return yieldDone
}
