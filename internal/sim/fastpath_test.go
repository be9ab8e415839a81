package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestCallbackOrdering pins the callback fast path to the engine's ordering
// contract: callbacks interleave with process wakeups in exact (time,
// schedule-order) sequence.
func TestCallbackOrdering(t *testing.T) {
	e := NewEngine()
	var order []string
	mark := func(s string) func() {
		return func() { order = append(order, s) }
	}
	e.At(10, mark("cb@10"))
	e.Spawn("p", func(p *Proc) {
		p.Sleep(10)
		order = append(order, "proc@10")
		p.Sleep(10)
		order = append(order, "proc@20")
	})
	e.At(20, mark("cb@20"))
	e.After(15, mark("cb@15"))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(order, ",")
	// At 10: the callback was scheduled before the proc's sleep, so it
	// fires first. At 20: cb@20 was scheduled at setup, before the proc's
	// second sleep existed.
	want := "cb@10,proc@10,cb@15,cb@20,proc@20"
	if got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

// TestCallbackSameInstantAppend verifies that a callback scheduling more
// work for the current instant runs it in the same dispatch batch, after
// everything already queued there.
func TestCallbackSameInstantAppend(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(5, func() {
		order = append(order, "a")
		e.After(0, func() { order = append(order, "a-tail") })
	})
	e.At(5, func() { order = append(order, "b") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "a,b,a-tail" {
		t.Fatalf("order = %s, want a,b,a-tail", got)
	}
	if e.Now() != 5 {
		t.Fatalf("now = %v, want 5", e.Now())
	}
}

// TestCallbackPastTimeClamps checks that At with a stale timestamp fires at
// the current instant rather than rewinding the clock.
func TestCallbackPastTimeClamps(t *testing.T) {
	e := NewEngine()
	var at Time = -1
	e.At(10, func() {
		e.At(3, func() { at = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 10 {
		t.Fatalf("stale callback fired at %v, want 10", at)
	}
}

// TestCallbackSpawnsProc checks the handoff from the fast path back to full
// Proc semantics: a callback may spawn blocking work.
func TestCallbackSpawnsProc(t *testing.T) {
	e := NewEngine()
	var done Time
	e.After(7, func() {
		e.Spawn("w", func(p *Proc) {
			p.Sleep(5)
			done = p.Now()
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 12 {
		t.Fatalf("spawned proc finished at %v, want 12", done)
	}
	st := e.Stats()
	if st.Callbacks != 1 || st.Procs != 1 {
		t.Fatalf("stats = %+v, want 1 callback and 1 proc", st)
	}
}

// TestCallbackFiresPrimitives checks that callbacks can release blocked
// processes through the non-blocking primitive surface.
func TestCallbackFiresPrimitives(t *testing.T) {
	e := NewEngine()
	l := NewLatch(e)
	c := NewChan(e, 1)
	var got interface{}
	e.Spawn("waiter", func(p *Proc) {
		l.Wait(p)
		got, _ = c.Recv(p)
	})
	e.After(9, func() {
		if !c.TrySend(42) {
			t.Error("TrySend failed on empty buffered chan")
		}
		l.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("received %v, want 42", got)
	}
}

// TestRunUntilWithCallbacks checks deadline stop/resume across the fast path.
func TestRunUntilWithCallbacks(t *testing.T) {
	e := NewEngine()
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < 10 {
			e.After(10, tick)
		}
	}
	e.After(10, tick)
	if err := e.RunUntil(35); err != nil {
		t.Fatal(err)
	}
	if fired != 3 || e.Now() != 35 {
		t.Fatalf("fired=%d now=%v at deadline", fired, e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 10 || e.Now() != 100 {
		t.Fatalf("fired=%d now=%v after resume", fired, e.Now())
	}
}

// TestProcReleaseAndIDRecycling verifies the finished-process free list: a
// long run of short-lived spawns keeps the live table small and reuses a
// compact ID range, while Stats still counts every spawn.
func TestProcReleaseAndIDRecycling(t *testing.T) {
	e := NewEngine()
	const waves, width = 50, 4
	maxID := 0
	e.Spawn("driver", func(p *Proc) {
		for w := 0; w < waves; w++ {
			wg := NewWaitGroup(e)
			for k := 0; k < width; k++ {
				wg.Add(1)
				q := e.Spawn(fmt.Sprintf("w%d-%d", w, k), func(q *Proc) {
					defer wg.Done()
					q.Sleep(1)
				})
				if q.ID() > maxID {
					maxID = q.ID()
				}
			}
			wg.Wait(p)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Procs != waves*width+1 {
		t.Fatalf("spawned = %d, want %d", st.Procs, waves*width+1)
	}
	if st.Live != 0 {
		t.Fatalf("live = %d after drain", st.Live)
	}
	// The driver plus one wave's workers coexist, so recycled IDs must stay
	// within a small constant range rather than growing with every spawn.
	if maxID > 2*width+1 {
		t.Fatalf("IDs grew to %d; free list not recycling (want <= %d)", maxID, 2*width+1)
	}
}

// TestDeadlockReportAfterRelease checks that releasing finished procs does
// not lose the blocked-proc names DeadlockError reports.
func TestDeadlockReportAfterRelease(t *testing.T) {
	e := NewEngine()
	l := NewLatch(e)
	e.Spawn("transient", func(p *Proc) { p.Sleep(5) })
	e.Spawn("stuck-b", func(p *Proc) { l.Wait(p) })
	e.Spawn("stuck-a", func(p *Proc) { p.Sleep(1); l.Wait(p) })
	err := e.Run()
	d, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(d.Blocked) != 2 || d.Blocked[0] != "stuck-a" || d.Blocked[1] != "stuck-b" {
		t.Fatalf("blocked = %v", d.Blocked)
	}
}

// TestScheduleZeroAlloc is the AllocsPerRun guard for the scheduling hot
// path: steady-state heap push/pop, same-instant batch dispatch, callback
// dispatch and process resumption must not allocate (tracing and metrics
// disabled — the same discipline the trace and obs layers are held to).
func TestScheduleZeroAlloc(t *testing.T) {
	e := NewEngine()
	// One long-lived proc (exercises schedule + resume), one self-renewing
	// callback chain (exercises the inline path), plus a same-instant burst
	// pair (exercises the ready ring) — all pre-warmed before measuring.
	stop := false
	e.Spawn("ticker", func(p *Proc) {
		for !stop {
			p.Sleep(3)
		}
	})
	var tick func()
	tick = func() {
		if !stop {
			e.After(2, tick)
			e.After(2, func() {})
		}
	}
	e.After(2, tick)
	// Warm: grow the heap, the ready ring and the proc table.
	if err := e.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	horizon := e.Now()
	allocs := testing.AllocsPerRun(200, func() {
		horizon += 60
		if err := e.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
	})
	stop = true
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The ticker's closure environment and the burst's anonymous func are
	// shared, not per-event; steady-state dispatch must be allocation-free.
	if allocs > 0 {
		t.Fatalf("steady-state dispatch allocates: %.1f allocs/run", allocs)
	}
}
