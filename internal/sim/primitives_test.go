package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestWaitGroupJoins(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e)
	var finished Time
	for i := 1; i <= 4; i++ {
		i := i
		wg.Add(1)
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(Time(i) * 10)
			wg.Done()
		})
	}
	e.Spawn("join", func(p *Proc) {
		wg.Wait(p)
		finished = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != 40 {
		t.Fatalf("join at %v, want 40", finished)
	}
}

func TestWaitGroupZeroIsImmediate(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e)
	ok := false
	e.Spawn("w", func(p *Proc) {
		wg.Wait(p)
		ok = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Wait on zero counter blocked")
	}
}

func TestLatch(t *testing.T) {
	e := NewEngine()
	l := NewLatch(e)
	var woke []Time
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			l.Wait(p)
			woke = append(woke, p.Now())
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(25)
		l.Fire()
		l.Fire() // idempotent
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters", len(woke))
	}
	for _, w := range woke {
		if w != 25 {
			t.Fatalf("woke at %v, want 25", w)
		}
	}
	if !l.Fired() {
		t.Fatal("latch not marked fired")
	}
}

func TestResourceSerializes(t *testing.T) {
	// Three jobs of 10 units each on a capacity-1 server finish at 10,20,30.
	e := NewEngine()
	r := NewResource(e, 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("j%d", i), func(p *Proc) {
			r.Use(p, 10)
			ends = append(ends, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 20, 30}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestResourceParallelism(t *testing.T) {
	// Capacity 2: four 10-unit jobs finish at 10,10,20,20.
	e := NewEngine()
	r := NewResource(e, 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("j%d", i), func(p *Proc) {
			r.Use(p, 10)
			ends = append(ends, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 10, 20, 20}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Spawn(fmt.Sprintf("j%d", i), func(p *Proc) {
			p.Sleep(Time(i)) // stagger arrivals: 0,1,2,3,4
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(100)
			r.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("service order = %v", order)
		}
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var got []bool
	e.Spawn("a", func(p *Proc) {
		got = append(got, r.TryAcquire()) // true
		got = append(got, r.TryAcquire()) // false: full
		r.Release()
		got = append(got, r.TryAcquire()) // true again
		r.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TryAcquire results = %v", got)
		}
	}
}

func TestResourceOverRelease(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := NewEngine()
	r := NewResource(e, 1)
	r.Release()
}

func TestResourceQueueingDelay(t *testing.T) {
	// Property: on a capacity-1 server, n equal jobs arriving together
	// finish at k*d for k = 1..n, i.e. total queueing is the arithmetic sum.
	f := func(nRaw, dRaw uint8) bool {
		n := int(nRaw%8) + 1
		d := Time(dRaw%50) + 1
		e := NewEngine()
		r := NewResource(e, 1)
		ends := make([]Time, 0, n)
		for i := 0; i < n; i++ {
			e.Spawn(fmt.Sprintf("j%d", i), func(p *Proc) {
				r.Use(p, d)
				ends = append(ends, p.Now())
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		for k, end := range ends {
			if end != Time(k+1)*d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

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

func TestResourceQueueStats(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("j%d", i), func(p *Proc) {
			r.Use(p, 10)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	acq, waited, total := r.QueueStats()
	if acq != 3 {
		t.Fatalf("acquires = %d", acq)
	}
	if waited != 2 {
		t.Fatalf("waited = %d", waited)
	}
	// Job 2 waits 10, job 3 waits 20.
	if total != 30 {
		t.Fatalf("wait total = %v, want 30", total)
	}
}

// tokenOps is one implementation of a ready count under test.
type tokenOps struct {
	put   func()
	take  func(*Proc) bool
	close func()
}

// TestTokensMatchChan runs one seeded script of bursty puts, busy takers
// and a final close over Tokens and over a Chan of empty values big enough
// never to block. Every dispatch and every take must happen at the same
// instant and in the same order: Tokens wakes idle takers exactly as the
// channel wakes its receivers.
func TestTokensMatchChan(t *testing.T) {
	run := func(seed uint64, newOps func(e *Engine) tokenOps) string {
		e := NewEngine()
		ops := newOps(e)
		var sb strings.Builder
		e.SetTrace(func(tm Time, p *Proc) { fmt.Fprintf(&sb, "%d:%s;", tm, p.Name()) })
		state := seed
		next := func(mod int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int(state>>33) % mod
		}
		e.Spawn("producer", func(p *Proc) {
			for i := 0; i < 60; i++ {
				p.Sleep(Time(next(4)))
				for n := next(4); n > 0; n-- {
					ops.put()
				}
			}
			p.Sleep(1000) // long enough for every taker to go idle
			ops.close()
		})
		for k := 0; k < 4; k++ {
			k := k
			e.Spawn(fmt.Sprintf("taker%d", k), func(p *Proc) {
				for n := 0; ops.take(p); n++ {
					fmt.Fprintf(&sb, "take%d@%d;", k, p.Now())
					p.Sleep(Time(1 + (k+n)%5))
				}
				fmt.Fprintf(&sb, "done%d@%d;", k, p.Now())
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	for seed := uint64(1); seed <= 20; seed++ {
		tokens := run(seed, func(e *Engine) tokenOps {
			tk := NewTokens(e)
			return tokenOps{tk.Put, tk.Take, tk.Close}
		})
		chans := run(seed, func(e *Engine) tokenOps {
			c := NewChan(e, 1<<20)
			return tokenOps{
				put:   func() { c.TrySend(struct{}{}) },
				take:  func(p *Proc) bool { _, ok := c.Recv(p); return ok },
				close: c.Close,
			}
		})
		if tokens != chans {
			t.Fatalf("seed %d: Tokens and Chan schedules differ:\n%s\n%s", seed, tokens, chans)
		}
		if !strings.Contains(tokens, "take3@") {
			t.Fatalf("seed %d: a taker never took a token: %s", seed, tokens)
		}
	}
}

// TestTokensClose checks what Close promises: waiting takers wake
// empty-handed, later takes fail at once even with tokens left, and puts
// after it do nothing.
func TestTokensClose(t *testing.T) {
	e := NewEngine()
	tk := NewTokens(e)
	var log []string
	for k := 0; k < 2; k++ {
		k := k
		e.Spawn(fmt.Sprintf("w%d", k), func(p *Proc) {
			log = append(log, fmt.Sprintf("w%d:%v@%d", k, tk.Take(p), p.Now()))
		})
	}
	e.Spawn("closer", func(p *Proc) {
		p.Sleep(5)
		tk.Close()
		tk.Put()
		tk.Close()
		log = append(log, fmt.Sprintf("late:%v", tk.Take(p)))
		left := NewTokens(e)
		left.Put()
		left.Close()
		log = append(log, fmt.Sprintf("left:%v", left.Take(p)))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(log, " "), "late:false left:false w0:false@5 w1:false@5"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}
