package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

// Chan, a value channel, and Barrier, a cyclic barrier, are test code: no
// runtime code needs them, since stages that pass readiness use Tokens and
// phases join on WaitGroups and Latches. The golden workload
// (golden_test.go) runs both, so its pinned resumption trace covers their
// wake-ups, and Chan is the oracle that TestTokensMatchChan and
// FuzzTokensMatchChan hold Tokens to; the tests below check the oracle.

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

func TestChanBuffered(t *testing.T) {
	e := NewEngine()
	c := NewChan(e, 2)
	var got []int
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			c.Send(p, i)
			p.Sleep(1)
		}
		c.Close()
	})
	e.Spawn("consumer", func(p *Proc) {
		for {
			v, ok := c.Recv(p)
			if !ok {
				return
			}
			got = append(got, v.(int))
			p.Sleep(3)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("received %d values", len(got))
	}
}

func TestChanRendezvous(t *testing.T) {
	e := NewEngine()
	c := NewChan(e, 0)
	var sendDone, recvAt Time
	e.Spawn("s", func(p *Proc) {
		c.Send(p, "x")
		sendDone = p.Now()
	})
	e.Spawn("r", func(p *Proc) {
		p.Sleep(42)
		v, ok := c.Recv(p)
		if !ok || v.(string) != "x" {
			t.Errorf("recv = %v,%v", v, ok)
		}
		recvAt = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sendDone != 42 || recvAt != 42 {
		t.Fatalf("send done %v, recv %v; want both 42", sendDone, recvAt)
	}
}

func TestChanBlockingBackpressure(t *testing.T) {
	// A capacity-1 channel with a slow consumer throttles the producer.
	e := NewEngine()
	c := NewChan(e, 1)
	var lastSend Time
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			c.Send(p, i)
		}
		lastSend = p.Now()
		c.Close()
	})
	e.Spawn("consumer", func(p *Proc) {
		for {
			if _, ok := c.Recv(p); !ok {
				return
			}
			p.Sleep(10)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Consumer takes v0 at t=0, sleeps to 10, takes v1 (buffered), ...
	// The 4th send can only complete once a slot frees at t=20.
	if lastSend != 20 {
		t.Fatalf("last send at %v, want 20", lastSend)
	}
}

func TestChanCloseWakesReceivers(t *testing.T) {
	e := NewEngine()
	c := NewChan(e, 4)
	okSeen := true
	e.Spawn("r", func(p *Proc) {
		_, ok := c.Recv(p)
		okSeen = ok
	})
	e.Spawn("closer", func(p *Proc) {
		p.Sleep(5)
		c.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if okSeen {
		t.Fatal("Recv on closed empty chan returned ok=true")
	}
}

func TestChanDrainAfterClose(t *testing.T) {
	e := NewEngine()
	c := NewChan(e, 4)
	var got []int
	e.Spawn("p", func(p *Proc) {
		c.Send(p, 1)
		c.Send(p, 2)
		c.Close()
	})
	e.Spawn("r", func(p *Proc) {
		p.Sleep(10) // start after close
		for {
			v, ok := c.Recv(p)
			if !ok {
				return
			}
			got = append(got, v.(int))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("drained %v", got)
	}
}

func TestChanTryOps(t *testing.T) {
	e := NewEngine()
	c := NewChan(e, 1)
	e.Spawn("t", func(p *Proc) {
		if _, ok := c.TryRecv(); ok {
			t.Error("TryRecv on empty chan succeeded")
		}
		if !c.TrySend(7) {
			t.Error("TrySend on empty chan failed")
		}
		if c.TrySend(8) {
			t.Error("TrySend on full chan succeeded")
		}
		v, ok := c.TryRecv()
		if !ok || v.(int) != 7 {
			t.Errorf("TryRecv = %v,%v", v, ok)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChanFIFOThroughManyValues(t *testing.T) {
	// Property: for any (cap, count), the consumer sees 0..count-1 in order.
	f := func(capRaw, nRaw uint8) bool {
		capacity := int(capRaw % 5)
		n := int(nRaw%64) + 1
		e := NewEngine()
		c := NewChan(e, capacity)
		var got []int
		e.Spawn("p", func(p *Proc) {
			for i := 0; i < n; i++ {
				c.Send(p, i)
			}
			c.Close()
		})
		e.Spawn("r", func(p *Proc) {
			for {
				v, ok := c.Recv(p)
				if !ok {
					return
				}
				got = append(got, v.(int))
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e, 3)
	var releases []Time
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(Time(10 * (i + 1))) // arrive at 10, 20, 30
			b.Wait(p)
			releases = append(releases, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(releases) != 3 {
		t.Fatalf("%d releases", len(releases))
	}
	for _, r := range releases {
		if r != 30 {
			t.Fatalf("released at %v, want 30 (last arriver)", r)
		}
	}
	if b.Rounds() != 1 {
		t.Fatalf("rounds = %d", b.Rounds())
	}
}

func TestBarrierCycles(t *testing.T) {
	// Two processes alternate through 5 rounds; the barrier must reset
	// each time.
	e := NewEngine()
	b := NewBarrier(e, 2)
	var aRounds, bRounds int
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(1)
			b.Wait(p)
			aRounds++
		}
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(7)
			b.Wait(p)
			bRounds++
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if aRounds != 5 || bRounds != 5 || b.Rounds() != 5 {
		t.Fatalf("rounds: a=%d b=%d barrier=%d", aRounds, bRounds, b.Rounds())
	}
	if e.Now() != 35 {
		t.Fatalf("final time %v, want 35 (slower process paces rounds)", e.Now())
	}
}

func TestBarrierSingleParty(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e, 1)
	e.Spawn("solo", func(p *Proc) {
		b.Wait(p) // must not block
		b.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Rounds() != 2 {
		t.Fatalf("rounds = %d", b.Rounds())
	}
}
