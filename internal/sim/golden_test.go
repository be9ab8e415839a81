package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// goldenTraceSHA256 is the SHA-256 of the resumption trace produced by
// goldenWorkload on the pre-fast-path engine (container/heap scheduling, one
// pop per event, every event a goroutine handoff). The rebuilt dispatch path
// — concrete 4-ary heap, same-time runs, same-instant batch dispatch,
// callback fast path — must reproduce the sequence byte for byte: virtual
// timestamps, resumption order and tie-breaks are observable semantics, not
// implementation detail.
const goldenTraceSHA256 = "80b09e47d354ab069350c4f457c7ccca8f83b5be34f5f8762127e9b478a78a46"

// goldenWorkload stresses every scheduling shape the runtime generates at
// paper scale: timer storms with same-instant collisions (stencil halo
// exchanges), FIFO resource contention (device service slots), rendezvous
// and buffered channel handoffs (staging rings), barriers (per-iteration
// phases), and nested spawn bursts (per-hop transfer procs).
func goldenWorkload(e *Engine) {
	r := NewResource(e, 3)
	bar := NewBarrier(e, 4)
	wg := NewWaitGroup(e)
	ch := NewChan(e, 2)
	done := NewLatch(e)

	for i := 0; i < 64; i++ {
		i := i
		wg.Add(1)
		e.Spawn(fmt.Sprintf("timer%02d", i), func(p *Proc) {
			defer wg.Done()
			for j := 0; j < 120; j++ {
				p.Sleep(Time(1 + (i*j)%7))
				if j%5 == i%5 {
					r.Use(p, Time(2+i%3))
				}
			}
		})
	}
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		e.Spawn(fmt.Sprintf("stencil%d", i), func(p *Proc) {
			defer wg.Done()
			for round := 0; round < 24; round++ {
				p.Sleep(Time(3 + (i+round)%4))
				bar.Wait(p)
			}
		})
	}
	wg.Add(1)
	e.Spawn("producer", func(p *Proc) {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			p.Sleep(2)
			ch.Send(p, i)
			if i%6 == 0 {
				i := i
				e.Spawn(fmt.Sprintf("burst%02d", i), func(q *Proc) {
					q.Sleep(1)
					r.Use(q, 1)
				})
			}
		}
		ch.Close()
	})
	wg.Add(1)
	e.Spawn("consumer", func(p *Proc) {
		defer wg.Done()
		for {
			v, ok := ch.Recv(p)
			if !ok {
				break
			}
			p.Sleep(Time(1 + v.(int)%4))
		}
		done.Fire()
	})
	e.Spawn("join", func(p *Proc) {
		done.Wait(p)
		wg.Wait(p)
	})
}

// goldenTrace runs the workload to completion with run and renders every
// resumption as "t:name;".
func goldenTrace(t testing.TB, run func(e *Engine) error) string {
	t.Helper()
	e := NewEngine()
	var sb strings.Builder
	e.SetTrace(func(tm Time, p *Proc) { fmt.Fprintf(&sb, "%d:%s;", tm, p.Name()) })
	goldenWorkload(e)
	if err := run(e); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestGoldenResumptionOrder holds the engine to the legacy dispatch path's
// exact resumption sequence, and to reproducing it across repeated runs.
func TestGoldenResumptionOrder(t *testing.T) {
	a := goldenTrace(t, (*Engine).Run)
	b := goldenTrace(t, (*Engine).Run)
	if a != b {
		t.Fatal("repeated runs produced different resumption traces")
	}
	sum := sha256.Sum256([]byte(a))
	if got := hex.EncodeToString(sum[:]); got != goldenTraceSHA256 {
		tail := a
		if len(tail) > 120 {
			tail = "..." + tail[len(tail)-120:]
		}
		t.Fatalf("resumption trace diverged from the legacy dispatch path:\n got sha256 %s\nwant sha256 %s\n(%d resumptions, trace ends %q)",
			got, goldenTraceSHA256, strings.Count(a, ";"), tail)
	}
}

// TestGoldenSlicedRun drives the golden workload in 3ns RunUntil slices, as
// the paced serve driver does. Each slice ends by stopping the idle
// coroutines and the next creates them afresh, which must not move a single
// resumption.
func TestGoldenSlicedRun(t *testing.T) {
	trace := goldenTrace(t, func(e *Engine) error {
		for {
			if _, ok := e.Peek(); !ok {
				return e.Run()
			}
			if err := e.RunUntil(e.Now() + 3); err != nil {
				return err
			}
		}
	})
	sum := sha256.Sum256([]byte(trace))
	if got := hex.EncodeToString(sum[:]); got != goldenTraceSHA256 {
		t.Fatalf("sliced run diverged: got sha256 %s, want %s", got, goldenTraceSHA256)
	}
}
