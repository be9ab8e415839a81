package sim

import "fmt"

// waitList is a FIFO of blocked processes. Because the engine serializes
// execution, wait lists need no locking.
type waitList struct {
	procs []*Proc
}

func (w *waitList) push(p *Proc) { w.procs = append(w.procs, p) }
func (w *waitList) empty() bool  { return len(w.procs) == 0 }
func (w *waitList) popFront() *Proc {
	p := w.procs[0]
	// Shift rather than re-slice so the backing array does not grow without
	// bound across a long simulation.
	copy(w.procs, w.procs[1:])
	w.procs = w.procs[:len(w.procs)-1]
	return p
}

// wakeAll wakes every waiter (in FIFO order) and empties the list.
func (w *waitList) wakeAll(e *Engine) {
	for _, p := range w.procs {
		e.wake(p)
	}
	w.procs = w.procs[:0]
}

// wakeOne wakes the first waiter, if any.
func (w *waitList) wakeOne(e *Engine) {
	if !w.empty() {
		e.wake(w.popFront())
	}
}

// WaitGroup mirrors sync.WaitGroup in virtual time.
type WaitGroup struct {
	e       *Engine
	n       int
	waiters waitList
}

// NewWaitGroup returns a WaitGroup bound to e with a zero counter.
func NewWaitGroup(e *Engine) *WaitGroup { return &WaitGroup{e: e} }

// Add adds delta (which may be negative) to the counter. When the counter
// reaches zero, all processes blocked in Wait resume. The counter going
// negative is a bug and panics.
func (wg *WaitGroup) Add(delta int) {
	wg.n += delta
	if wg.n < 0 {
		panic("sim: WaitGroup counter negative")
	}
	if wg.n == 0 {
		wg.waiters.wakeAll(wg.e)
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks p until the counter is zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.n == 0 {
		return
	}
	wg.waiters.push(p)
	p.block()
}

// Latch is a one-shot event: processes Wait until some process Fires it.
// Waiting on an already-fired latch returns immediately.
type Latch struct {
	e       *Engine
	fired   bool
	waiters waitList
}

// NewLatch returns an unfired latch bound to e.
func NewLatch(e *Engine) *Latch { return &Latch{e: e} }

// Fire releases all current and future waiters. Firing twice is a no-op.
func (l *Latch) Fire() {
	if l.fired {
		return
	}
	l.fired = true
	l.waiters.wakeAll(l.e)
}

// Wait blocks p until the latch fires.
func (l *Latch) Wait(p *Proc) {
	if l.fired {
		return
	}
	l.waiters.push(p)
	p.block()
}

// Resource is a counting semaphore with FIFO wakeup. With capacity 1 it is a
// fair mutex; device models use it to serialize (or K-way parallelize)
// requests so queueing delay emerges naturally.
//
// Release transfers ownership of the freed unit directly to the oldest
// waiter, so acquisition order equals arrival order and no process observes
// a spurious wakeup.
type Resource struct {
	e     *Engine
	cap   int
	inUse int
	// waiters holds blocked acquirers in arrival order. A waiter is either a
	// blocked process (p != nil) or an inline-callback continuation queued by
	// AcquireAsync (fn != nil); keeping both in one FIFO preserves fairness
	// when proc-driven and callback-driven users contend for one device.
	waiters []resWaiter

	// Queueing statistics: how many acquisitions waited, and for how long
	// in total. They quantify contention in device models.
	acquires  int64
	waited    int64
	waitTotal Time
}

// resWaiter is one queued acquirer: a blocked process or a continuation.
type resWaiter struct {
	p  *Proc
	fn func()
	at Time // enqueue time, for callback wait accounting
}

// popWaiter removes and returns the oldest waiter.
func (r *Resource) popWaiter() resWaiter {
	w := r.waiters[0]
	// Shift rather than re-slice so the backing array does not grow without
	// bound across a long simulation.
	copy(r.waiters, r.waiters[1:])
	r.waiters[len(r.waiters)-1] = resWaiter{}
	r.waiters = r.waiters[:len(r.waiters)-1]
	return w
}

// NewResource returns a semaphore with the given capacity (>= 1).
func NewResource(e *Engine, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: Resource capacity %d < 1", capacity))
	}
	return &Resource{e: e, cap: capacity}
}

// Acquire blocks p until a unit of the resource is free, then takes it.
func (r *Resource) Acquire(p *Proc) {
	r.acquires++
	if r.inUse < r.cap && len(r.waiters) == 0 {
		r.inUse++
		return
	}
	at := r.e.now
	r.waiters = append(r.waiters, resWaiter{p: p})
	p.block()
	// Release reserved the unit for us before waking us; account the wait.
	r.waited++
	r.waitTotal += r.e.now - at
}

// AcquireAsync takes a unit of the resource and runs fn holding it — inline
// when one is immediately free, otherwise as an engine callback when Release
// hands the unit over, in the same FIFO position a blocked process would
// occupy. fn must follow the inline-callback contract (Engine.At): it may
// schedule, fire, put tokens — never block. fn must eventually lead to a
// Release, exactly like a successful Acquire.
func (r *Resource) AcquireAsync(fn func()) {
	r.acquires++
	if r.inUse < r.cap && len(r.waiters) == 0 {
		r.inUse++
		fn()
		return
	}
	r.waiters = append(r.waiters, resWaiter{fn: fn, at: r.e.now})
}

// QueueStats reports contention: total acquisitions, how many had to wait,
// and the cumulative waiting time.
func (r *Resource) QueueStats() (acquires, waited int64, waitTotal Time) {
	return r.acquires, r.waited, r.waitTotal
}

// Release returns a unit of the resource. If acquirers are waiting, the unit
// is handed to the oldest waiter without ever becoming free: a blocked
// process is woken, a queued continuation is scheduled as a same-instant
// engine callback.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Resource released more than acquired")
	}
	if len(r.waiters) > 0 {
		w := r.popWaiter()
		if w.p != nil {
			r.e.wake(w.p)
		} else {
			r.waited++
			r.waitTotal += r.e.now - w.at
			r.e.At(r.e.now, w.fn)
		}
		return // ownership transferred; inUse unchanged
	}
	r.inUse--
}

// Use acquires the resource, sleeps for d, and releases it: the basic
// "request a server for a service time" pattern of queueing models.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// Tokens is a count of interchangeable tokens in virtual time: the
// hand-off between stages that pass readiness and nothing else. Takers
// wait in arrival order, and each token a put hands goes straight to the
// oldest waiting one. A bounded count holds at most its bound: a blocking
// put waits while it is full, in arrival order, and a take that frees room
// admits the oldest waiting putter. A bound of 0 is a rendezvous: each put
// waits for the take that receives its token.
type Tokens struct {
	e       *Engine
	n       int
	bound   int // the most tokens held; negative when unbounded
	closed  bool
	takers  waitList
	putters waitList
}

// NewTokens returns an empty, open, unbounded count bound to e.
func NewTokens(e *Engine) *Tokens { return &Tokens{e: e, bound: -1} }

// NewBoundedTokens returns an empty, open count bound to e that holds at
// most bound (>= 0) tokens.
func NewBoundedTokens(e *Engine, bound int) *Tokens {
	if bound < 0 {
		panic(fmt.Sprintf("sim: Tokens bound %d < 0", bound))
	}
	return &Tokens{e: e, bound: bound}
}

// Put adds a token without blocking, so engine callbacks may call it,
// waking the oldest waiting taker with it. Put after Close does nothing. A
// Put that would have to wait for room panics: a bounded count is filled
// with PutWait.
func (t *Tokens) Put() {
	if !t.put() {
		panic("sim: Put on a full Tokens")
	}
}

// PutWait adds a token as Put does, blocking p while the count is full.
func (t *Tokens) PutWait(p *Proc) {
	if !t.put() {
		t.putters.push(p)
		p.block()
	}
}

// put hands a token to the oldest waiting taker or adds it to the count,
// and reports false, doing nothing, when a bounded count is full. After
// Close it drops the token.
func (t *Tokens) put() bool {
	switch {
	case t.closed:
	case !t.takers.empty():
		t.takers.wakeOne(t.e)
	case t.bound >= 0 && t.n >= t.bound:
		return false
	default:
		t.n++
	}
	return true
}

// Take removes a token, blocking p while there is none. It returns false
// once the count is closed, whatever tokens are left.
func (t *Tokens) Take(p *Proc) bool {
	switch {
	case t.closed:
		return false
	case !t.putters.empty():
		// The oldest waiting putter's token fills the room this take frees
		// (at a bound of 0, it is the token taken).
		t.putters.wakeOne(t.e)
		return true
	case t.n > 0:
		t.n--
		return true
	}
	t.takers.push(p)
	p.block()
	return !t.closed
}

// Close closes the count, wakes every waiting taker empty-handed and lets
// every waiting putter return, its token dropped. Closing twice does
// nothing.
func (t *Tokens) Close() {
	if !t.closed {
		t.closed = true
		t.takers.wakeAll(t.e)
		t.putters.wakeAll(t.e)
	}
}
