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
	var lateAt Time
	e.Spawn("late", func(p *Proc) {
		p.Sleep(30)
		l.Wait(p) // already fired: returns at once
		lateAt = p.Now()
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
	if lateAt != 30 {
		t.Fatalf("late waiter returned at %v, want 30", lateAt)
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

// tokenOps is one implementation of a count under test. put adds a token,
// blocking p while a bounded count is full.
type tokenOps struct {
	put   func(p *Proc)
	take  func(p *Proc) bool
	close func()
}

// tokensOps returns Tokens with the given bound, unbounded when it is
// negative. An unbounded count is filled with the non-blocking Put, a
// bounded one with PutWait.
func tokensOps(e *Engine, bound int) tokenOps {
	if bound < 0 {
		tk := NewTokens(e)
		return tokenOps{func(*Proc) { tk.Put() }, tk.Take, tk.Close}
	}
	tk := NewBoundedTokens(e, bound)
	return tokenOps{tk.PutWait, tk.Take, tk.Close}
}

// chanOps returns the oracle for tokensOps(e, bound): a Chan of empty
// values, with that capacity and blocking sends when bounded, or big enough
// never to fill and non-blocking sends when not.
func chanOps(e *Engine, bound int) tokenOps {
	var c *Chan
	put := func(p *Proc) { c.Send(p, struct{}{}) }
	if bound < 0 {
		c = NewChan(e, 1<<20)
		put = func(*Proc) { c.TrySend(struct{}{}) }
	} else {
		c = NewChan(e, bound)
	}
	take := func(p *Proc) bool { _, ok := c.Recv(p); return ok }
	return tokenOps{put, take, c.Close}
}

// tokenScript runs one seeded script over a count and renders every
// resumption, put and take with its instant, in order. The putters add
// bursts of tokens at random gaps, 60 bursts between them; the takers stay
// busy a while after each take; once every putter is done and the takers
// have long gone idle, the count closes.
func tokenScript(tb testing.TB, seed uint64, putters, takers int, newOps func(e *Engine) tokenOps) string {
	tb.Helper()
	e := NewEngine()
	ops := newOps(e)
	var sb strings.Builder
	e.SetTrace(func(tm Time, p *Proc) { fmt.Fprintf(&sb, "%d:%s;", tm, p.Name()) })
	state := seed
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % mod
	}
	wg := NewWaitGroup(e)
	for k := 0; k < putters; k++ {
		k := k
		wg.Add(1)
		e.Spawn(fmt.Sprintf("putter%d", k), func(p *Proc) {
			defer wg.Done()
			for i := 0; i < 60/putters; i++ {
				p.Sleep(Time(next(4)))
				for n := next(4); n > 0; n-- {
					ops.put(p)
					fmt.Fprintf(&sb, "put%d@%d;", k, p.Now())
				}
			}
		})
	}
	e.Spawn("closer", func(p *Proc) {
		wg.Wait(p)
		p.Sleep(1000) // long enough for every taker to go idle
		ops.close()
	})
	for k := 0; k < takers; k++ {
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
		tb.Fatal(err)
	}
	return sb.String()
}

// TestTokensMatchChan runs seeded scripts of bursty puts, busy takers and
// a final close over Tokens and over the Chan of empty values that is its
// oracle: unbounded with non-blocking puts, and bounded at 0, 1 and 2 with
// blocking putters. Every resumption, put and take must happen at the
// same instant and in the same order: Tokens wakes takers exactly as the
// channel wakes its receivers, and admits putters exactly as it admits
// its senders.
func TestTokensMatchChan(t *testing.T) {
	for _, bound := range []int{-1, 0, 1, 2} {
		for seed := uint64(1); seed <= 20; seed++ {
			putters := 1
			if bound >= 0 {
				putters += int(seed % 3)
			}
			tokens := tokenScript(t, seed, putters, 4, func(e *Engine) tokenOps { return tokensOps(e, bound) })
			chans := tokenScript(t, seed, putters, 4, func(e *Engine) tokenOps { return chanOps(e, bound) })
			if tokens != chans {
				t.Fatalf("bound %d, seed %d: Tokens and Chan schedules differ:\n%s\n%s", bound, seed, tokens, chans)
			}
			if !strings.Contains(tokens, "take3@") {
				t.Fatalf("bound %d, seed %d: a taker never took a token: %s", bound, seed, tokens)
			}
		}
	}
}

// FuzzTokensMatchChan is TestTokensMatchChan over drawn bounds (unbounded,
// or 0 to 3), script seeds and counts of putters and takers.
func FuzzTokensMatchChan(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(3))
	f.Add(uint64(7), uint8(1), uint8(2), uint8(0))
	f.Add(uint64(42), uint8(3), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, boundRaw, puttersRaw, takersRaw uint8) {
		bound := int(boundRaw%5) - 1
		putters, takers := 1+int(puttersRaw%4), 1+int(takersRaw%4)
		tokens := tokenScript(t, seed, putters, takers, func(e *Engine) tokenOps { return tokensOps(e, bound) })
		chans := tokenScript(t, seed, putters, takers, func(e *Engine) tokenOps { return chanOps(e, bound) })
		if tokens != chans {
			t.Fatalf("bound %d, %d putters, %d takers: Tokens and Chan schedules differ:\n%s\n%s",
				bound, putters, takers, tokens, chans)
		}
	})
}

// TestTokensBackpressure: a count bounded at 1 with a slow taker throttles
// its putter, and a non-blocking Put on the full count panics.
func TestTokensBackpressure(t *testing.T) {
	e := NewEngine()
	tk := NewBoundedTokens(e, 1)
	var lastPut Time
	var takes []Time
	e.Spawn("putter", func(p *Proc) {
		for i := 0; i < 4; i++ {
			tk.PutWait(p)
		}
		lastPut = p.Now()
	})
	e.Spawn("taker", func(p *Proc) {
		for i := 0; i < 4; i++ {
			tk.Take(p)
			takes = append(takes, p.Now())
			p.Sleep(10)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The taker takes token 0 at t=0 and sleeps to 10; token 1 waits in the
	// count. The 4th put completes only when the take at t=20 frees room.
	if lastPut != 20 {
		t.Fatalf("last put at %v, want 20", lastPut)
	}
	if fmt.Sprintf("%d", takes) != "[0 10 20 30]" {
		t.Fatalf("takes at %v, want [0 10 20 30]", takes)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put on a full bounded count did not panic")
		}
	}()
	full := NewBoundedTokens(e, 1)
	full.Put()
	full.Put()
}

// TestTokensRendezvous: at a bound of 0 a put waits for its taker, and a
// taker for its put, and both resume at the hand-off.
func TestTokensRendezvous(t *testing.T) {
	for _, putFirst := range []bool{true, false} {
		e := NewEngine()
		tk := NewBoundedTokens(e, 0)
		var putAt, takeAt Time
		e.Spawn("putter", func(p *Proc) {
			if !putFirst {
				p.Sleep(42)
			}
			tk.PutWait(p)
			putAt = p.Now()
		})
		e.Spawn("taker", func(p *Proc) {
			if putFirst {
				p.Sleep(42)
			}
			if !tk.Take(p) {
				t.Error("take on an open count failed")
			}
			takeAt = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if putAt != 42 || takeAt != 42 {
			t.Fatalf("put first %v: put done %v, take %v; want both 42", putFirst, putAt, takeAt)
		}
	}
}

// TestTokensFIFOWakeOrder: for any bound and any number of waiters,
// blocked putters are admitted and blocked takers woken in arrival order.
func TestTokensFIFOWakeOrder(t *testing.T) {
	inOrder := func(order []int, k int) bool {
		if len(order) != k {
			return false
		}
		for i, v := range order {
			if v != i {
				return false
			}
		}
		return true
	}
	f := func(boundRaw, kRaw uint8) bool {
		bound, k := int(boundRaw%4), int(kRaw%8)+1
		e := NewEngine()
		puts, takes := NewBoundedTokens(e, bound), NewBoundedTokens(e, bound)
		var putOrder, takeOrder []int
		for i := 0; i < k; i++ {
			i := i
			e.Spawn(fmt.Sprintf("putter%d", i), func(p *Proc) {
				p.Sleep(Time(i)) // arrive at 0, 1, ..., k-1
				puts.PutWait(p)
				putOrder = append(putOrder, i)
			})
			e.Spawn(fmt.Sprintf("taker%d", i), func(p *Proc) {
				p.Sleep(Time(i))
				takes.Take(p)
				takeOrder = append(takeOrder, i)
			})
		}
		e.Spawn("drain", func(p *Proc) {
			p.Sleep(100)
			for i := 0; i < k; i++ {
				puts.Take(p)
				takes.PutWait(p)
				p.Sleep(1)
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return inOrder(putOrder, k) && inOrder(takeOrder, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTokensClose checks what Close promises: waiting takers wake
// empty-handed, waiting putters return, later takes fail at once even with
// tokens left, and puts after it do nothing.
func TestTokensClose(t *testing.T) {
	e := NewEngine()
	tk := NewTokens(e)
	full := NewBoundedTokens(e, 0)
	var log []string
	for k := 0; k < 2; k++ {
		k := k
		e.Spawn(fmt.Sprintf("w%d", k), func(p *Proc) {
			log = append(log, fmt.Sprintf("w%d:%v@%d", k, tk.Take(p), p.Now()))
		})
	}
	e.Spawn("putter", func(p *Proc) {
		full.PutWait(p)
		log = append(log, fmt.Sprintf("put@%d", p.Now()))
	})
	e.Spawn("closer", func(p *Proc) {
		p.Sleep(5)
		tk.Close()
		full.Close()
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
	if got, want := strings.Join(log, " "), "late:false left:false w0:false@5 w1:false@5 put@5"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}
