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

// Fired reports whether the latch has been fired.
func (l *Latch) Fired() bool { return l.fired }

// Wait blocks p until the latch fires.
func (l *Latch) Wait(p *Proc) {
	if l.fired {
		return
	}
	l.waiters.push(p)
	p.block()
}

// Barrier is a cyclic barrier: Wait blocks until `parties` processes have
// arrived, then releases them all and resets for the next round — the
// synchronization shape of per-iteration stencil phases.
type Barrier struct {
	e       *Engine
	parties int
	arrived int
	waiters waitList
	rounds  int
}

// NewBarrier returns a barrier for the given number of parties (>= 1).
func NewBarrier(e *Engine, parties int) *Barrier {
	if parties < 1 {
		panic("sim: Barrier with no parties")
	}
	return &Barrier{e: e, parties: parties}
}

// Wait blocks p until all parties arrive. The last arriver does not block;
// it trips the barrier and wakes everyone.
func (b *Barrier) Wait(p *Proc) {
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.rounds++
		b.waiters.wakeAll(b.e)
		return
	}
	b.waiters.push(p)
	p.block()
}

// Rounds returns how many times the barrier has tripped.
func (b *Barrier) Rounds() int { return b.rounds }

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
	enqueued  map[*Proc]Time
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
	if r.enqueued == nil {
		r.enqueued = make(map[*Proc]Time)
	}
	r.enqueued[p] = r.e.now
	r.waiters = append(r.waiters, resWaiter{p: p})
	p.block()
	// Release reserved the unit for us before waking us; account the wait.
	r.waited++
	r.waitTotal += r.e.now - r.enqueued[p]
	delete(r.enqueued, p)
}

// AcquireAsync takes a unit of the resource and runs fn holding it — inline
// when one is immediately free, otherwise as an engine callback when Release
// hands the unit over, in the same FIFO position a blocked process would
// occupy. fn must follow the inline-callback contract (Engine.At): it may
// schedule, fire, try-send — never block. fn must eventually lead to a
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

// TryAcquire takes a unit if one is immediately available and no earlier
// waiter is queued; it reports whether it succeeded.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.cap && len(r.waiters) == 0 {
		r.acquires++
		r.inUse++
		return true
	}
	return false
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

// InUse returns the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

// Capacity returns the total number of units.
func (r *Resource) Capacity() int { return r.cap }

// QueueLen returns the number of acquirers waiting for a unit.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// Use acquires the resource, sleeps for d, and releases it: the basic
// "request a server for a service time" pattern of queueing models.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// Tokens is a count of interchangeable tokens in virtual time: a Chan of
// empty values without the buffer. Takers wait in arrival order, and each
// token Put hands goes straight to the oldest waiting one.
type Tokens struct {
	e       *Engine
	n       int
	closed  bool
	waiters waitList
}

// NewTokens returns an empty, open count bound to e.
func NewTokens(e *Engine) *Tokens { return &Tokens{e: e} }

// Put adds a token, waking the oldest waiting taker with it. Put after
// Close does nothing.
func (t *Tokens) Put() {
	if t.closed {
		return
	}
	if t.waiters.empty() {
		t.n++
		return
	}
	t.waiters.wakeOne(t.e)
}

// Take removes a token, blocking p while there is none. It returns false
// once the count is closed, whatever tokens are left.
func (t *Tokens) Take(p *Proc) bool {
	if t.closed {
		return false
	}
	if t.n > 0 {
		t.n--
		return true
	}
	t.waiters.push(p)
	p.block()
	return !t.closed
}

// Close closes the count and wakes every waiting taker empty-handed.
// Closing twice does nothing.
func (t *Tokens) Close() {
	if !t.closed {
		t.closed = true
		t.waiters.wakeAll(t.e)
	}
}

// Chan is a bounded FIFO channel in virtual time. A capacity of zero gives
// rendezvous (unbuffered) semantics. Values are handed to receivers in send
// order; blocked senders and receivers are served in arrival order.
type Chan struct {
	e      *Engine
	buf    []interface{}
	cap    int
	closed bool

	sendq []*chanSender
	recvq []*chanReceiver
}

type chanSender struct {
	p *Proc
	v interface{}
}

type chanReceiver struct {
	p      *Proc
	v      interface{}
	filled bool
}

// NewChan returns a channel bound to e with the given buffer capacity.
func NewChan(e *Engine, capacity int) *Chan {
	if capacity < 0 {
		panic("sim: negative Chan capacity")
	}
	return &Chan{e: e, cap: capacity}
}

// Len returns the number of buffered (sent but not yet received) values.
func (c *Chan) Len() int { return len(c.buf) }

// Closed reports whether Close has been called.
func (c *Chan) Closed() bool { return c.closed }

// Send enqueues v, blocking p while the buffer is full (or, for a rendezvous
// channel, until a receiver arrives). Sending on a closed channel panics.
func (c *Chan) Send(p *Proc, v interface{}) {
	if c.closed {
		panic("sim: send on closed Chan")
	}
	if len(c.recvq) > 0 {
		// Hand the value directly to the oldest waiting receiver.
		rx := c.recvq[0]
		c.recvq = c.recvq[:copy(c.recvq, c.recvq[1:])]
		rx.v, rx.filled = v, true
		c.e.wake(rx.p)
		return
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return
	}
	// Buffer full (or rendezvous with no receiver): queue and block. A
	// receiver (or Close) will wake us after consuming our value.
	s := &chanSender{p: p, v: v}
	c.sendq = append(c.sendq, s)
	p.block()
	if c.closed && s.v != nil {
		// Close woke us without a receiver taking the value.
		panic("sim: send on closed Chan")
	}
}

// TrySend enqueues v if the channel can accept it without blocking,
// reporting whether it did.
func (c *Chan) TrySend(v interface{}) bool {
	if c.closed {
		panic("sim: send on closed Chan")
	}
	if len(c.recvq) > 0 {
		rx := c.recvq[0]
		c.recvq = c.recvq[:copy(c.recvq, c.recvq[1:])]
		rx.v, rx.filled = v, true
		c.e.wake(rx.p)
		return true
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return true
	}
	return false
}

// Recv dequeues a value, blocking p while the channel is empty. ok is false
// only when the channel is closed and fully drained.
func (c *Chan) Recv(p *Proc) (v interface{}, ok bool) {
	if v, ok = c.takeReady(); ok {
		return v, true
	}
	if c.closed {
		return nil, false
	}
	rx := &chanReceiver{p: p}
	c.recvq = append(c.recvq, rx)
	p.block()
	if rx.filled {
		return rx.v, true
	}
	// Woken by Close with nothing delivered.
	return nil, false
}

// TryRecv dequeues a value without blocking; ok is false when nothing is
// immediately available.
func (c *Chan) TryRecv() (v interface{}, ok bool) {
	return c.takeReady()
}

// takeReady removes and returns the next deliverable value: from the buffer
// first, otherwise directly from a blocked sender (rendezvous).
func (c *Chan) takeReady() (interface{}, bool) {
	if len(c.buf) > 0 {
		v := c.buf[0]
		c.buf = c.buf[:copy(c.buf, c.buf[1:])]
		// A freed buffer slot admits the oldest blocked sender.
		if len(c.sendq) > 0 {
			s := c.sendq[0]
			c.sendq = c.sendq[:copy(c.sendq, c.sendq[1:])]
			c.buf = append(c.buf, s.v)
			s.v = nil
			c.e.wake(s.p)
		}
		return v, true
	}
	if len(c.sendq) > 0 { // rendezvous (cap == 0)
		s := c.sendq[0]
		c.sendq = c.sendq[:copy(c.sendq, c.sendq[1:])]
		v := s.v
		s.v = nil
		c.e.wake(s.p)
		return v, true
	}
	return nil, false
}

// Close marks the channel closed, waking all blocked receivers (which see
// ok == false once the buffer drains) and panicking any blocked senders.
// Closing twice panics, as with native channels.
func (c *Chan) Close() {
	if c.closed {
		panic("sim: close of closed Chan")
	}
	c.closed = true
	for _, rx := range c.recvq {
		c.e.wake(rx.p)
	}
	c.recvq = nil
	for _, s := range c.sendq {
		c.e.wake(s.p) // wakes into the "send on closed Chan" panic
	}
	c.sendq = nil
}
