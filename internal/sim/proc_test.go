package sim

import (
	"runtime"
	"strings"
	"testing"
)

// TestSpawnAllocs holds a spawn-and-finish cycle to the Proc and the body's
// closure: the coroutine comes from the idle list, not a fresh allocation.
func TestSpawnAllocs(t *testing.T) {
	e := NewEngine()
	var allocs float64
	e.Spawn("driver", func(p *Proc) {
		wg := NewWaitGroup(e)
		cycle := func() {
			wg.Add(1)
			e.Spawn("w", func(q *Proc) {
				q.Sleep(1)
				wg.Done()
			})
			wg.Wait(p)
		}
		cycle() // warm: the first worker creates the coroutine the rest reuse
		allocs = testing.AllocsPerRun(100, cycle)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs > 2 {
		t.Fatalf("spawn-and-finish allocates %.1f times, want <= 2", allocs)
	}
}

// TestNoCoroutineOutlivesRun runs spawn churn on many short-lived engines,
// the way a benchmark builds a fresh engine per op: the idle coroutines
// each run leaves behind must all be stopped by the time Run returns.
func TestNoCoroutineOutlivesRun(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		e := NewEngine()
		e.Spawn("driver", func(p *Proc) {
			wg := NewWaitGroup(e)
			for k := 0; k < 64; k++ {
				wg.Add(1)
				e.Spawn("w", func(q *Proc) {
					defer wg.Done()
					q.Sleep(Time(1 + k%3))
				})
			}
			wg.Wait(p)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// A stopped coroutine may take a scheduling round to finish exiting.
	after := runtime.NumGoroutine()
	for i := 0; i < 100 && after > before; i++ {
		runtime.Gosched()
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("goroutines: %d before, %d after 100 runs", before, after)
	}
}

// TestPanicOnReusedCoroutine checks that a body panicking on a coroutine an
// earlier body already ran on is reported under its own process's name.
func TestPanicOnReusedCoroutine(t *testing.T) {
	e := NewEngine()
	var first, second *coro
	e.Spawn("first", func(p *Proc) { first = p.co })
	e.Spawn("second", func(p *Proc) {
		second = p.co
		p.Sleep(1)
		panic("kaboom")
	})
	err := e.Run()
	if first == nil || first != second {
		t.Fatal("second process did not reuse the first one's coroutine")
	}
	if err == nil || !strings.Contains(err.Error(), `process "second" panicked: kaboom`) {
		t.Fatalf("err = %v", err)
	}
}
