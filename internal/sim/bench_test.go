package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEventThroughput measures raw engine speed: one process sleeping
// repeatedly (a coroutine switch there and back per event).
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine()
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkManyProcesses measures scheduling with a wide ready set.
func BenchmarkManyProcesses(b *testing.B) {
	e := NewEngine()
	const procs = 64
	per := b.N/procs + 1
	for i := 0; i < procs; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < per; j++ {
				p.Sleep(Time(1 + j%7))
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResourceContention measures a FIFO server under load.
func BenchmarkResourceContention(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, 2)
	const workers = 16
	per := b.N/workers + 1
	for i := 0; i < workers; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			for j := 0; j < per; j++ {
				r.Use(p, 3)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCallbackThroughput measures the inline fast path: one callback
// chain rescheduling itself (no coroutine switch per event).
func BenchmarkCallbackThroughput(b *testing.B) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCallbackFanOut measures same-instant batch dispatch: wide bursts
// of callbacks sharing one timestamp, the serve tier's wake-storm shape.
func BenchmarkCallbackFanOut(b *testing.B) {
	e := NewEngine()
	const width = 64
	leaf := func() {}
	rounds := b.N/width + 1
	r := 0
	var burst func()
	burst = func() {
		for k := 0; k < width; k++ {
			e.After(0, leaf)
		}
		r++
		if r < rounds {
			e.After(1, burst)
		}
	}
	e.After(1, burst)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawnChurn measures short-lived process turnover: spawn, one
// sleep, finish — the per-hop transfer proc shape — exercising the
// finished-proc release path, the ID free list and coroutine reuse.
func BenchmarkSpawnChurn(b *testing.B) {
	e := NewEngine()
	const width = 8
	e.Spawn("driver", func(p *Proc) {
		wg := NewWaitGroup(e)
		for i := 0; i < b.N; i += width {
			for k := 0; k < width; k++ {
				wg.Add(1)
				e.Spawn("w", func(q *Proc) {
					defer wg.Done()
					q.Sleep(1)
				})
			}
			wg.Wait(p)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkChanPingPong measures rendezvous channel handoffs.
func BenchmarkChanPingPong(b *testing.B) {
	e := NewEngine()
	c := NewChan(e, 0)
	e.Spawn("sender", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Send(p, i)
		}
		c.Close()
	})
	e.Spawn("receiver", func(p *Proc) {
		for {
			if _, ok := c.Recv(p); !ok {
				return
			}
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
