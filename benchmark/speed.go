package main

import (
	"runtime"
	"sort"
	"time"
)

// The host a benchmark run shares with other tenants changes speed by tens
// of percent, in bursts from a tenth of a second to minutes long; CPU time
// tracks wall time through them, so the slowdown is contention inside the
// CPU, not lost time slices. The end-to-end host times are therefore scaled
// to a fixed host speed: a run times a fixed reference computation between
// its ops, and divides its op times by the mean reference time over
// refNominalMS (each set-up by the sample taken just before it). A single
// reference sample lands either in a fast or in a slow burst, so the mean
// over many samples, not their median, follows the share of time the run
// spent in each. Because the reference is the benchmark's own code, a change
// to the program moves the scaled times exactly as it moves the raw ones.

// refNominalMS is the reference computation's time at the nominal host
// speed. Its value only sets the scale: about the reference's mean on the
// host the benchmark was tuned on, so that scaled times read close to raw
// ones.
const refNominalMS = 3.5

// refEvery is the least host time between two reference samples during a
// measured phase: a few percent of a run go to them, outside every timed
// span.
const refEvery = 250 * time.Millisecond

// refEvent is one entry of the reference computation's event queue.
type refEvent struct {
	at int64
	fn func(int64) int64
}

// speedMeter times the reference computation: an event loop over a binary
// heap dispatching through function values, and a sort of a fixed array,
// shaped like the simulator's own work and sized to stay in the core's
// caches, where the slowdowns show. The computation allocates nothing, so
// the program's garbage does not change it.
type speedMeter struct {
	heap      []refEvent
	src, buf  []int
	samplesMS []float64
	last      time.Time
	sink      int64
}

func newSpeedMeter() *speedMeter {
	m := &speedMeter{heap: make([]refEvent, 0, 2048), src: make([]int, 12_500), buf: make([]int, 12_500)}
	x := uint64(1)
	for i := range m.src {
		x = x*6364136223846793005 + 1442695040888963407
		m.src[i] = int(x >> 33)
	}
	return m
}

// sample times the reference computation once. It first finishes any
// garbage collection the ops started, whose workers would otherwise share
// the CPU with the reference for as long as the program's heap makes them.
func (m *speedMeter) sample() {
	runtime.GC()
	start := time.Now()
	m.sink += m.eventLoop() + m.sortOnce()
	m.last = time.Now()
	m.samplesMS = append(m.samplesMS, float64(m.last.Sub(start).Nanoseconds())/1e6)
}

// maybeSample samples when refEvery has passed since the last sample, and
// returns the time it took.
func (m *speedMeter) maybeSample() time.Duration {
	if m == nil || time.Since(m.last) < refEvery {
		return 0
	}
	start := time.Now()
	m.sample()
	return time.Since(start)
}

// refMS is the mean reference time of the samples so far.
func (m *speedMeter) refMS() float64 { return mean(m.samplesMS) }

// slowness is the mean reference time over nominal: above 1 when the host
// ran slower than nominal. Raw host times divided by it are the scaled ones.
func (m *speedMeter) slowness() float64 { return m.refMS() / refNominalMS }

// lastSlowness is the slowness the latest sample alone gives.
func (m *speedMeter) lastSlowness() float64 { return m.samplesMS[len(m.samplesMS)-1] / refNominalMS }

func (m *speedMeter) eventLoop() int64 {
	h := m.heap[:0]
	push := func(e refEvent) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p].at <= h[i].at {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() refEvent {
		top, n := h[0], len(h)-1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			l, r, s := 2*i+1, 2*i+2, i
			if l < n && h[l].at < h[s].at {
				s = l
			}
			if r < n && h[r].at < h[s].at {
				s = r
			}
			if s == i {
				break
			}
			h[s], h[i] = h[i], h[s]
			i = s
		}
		return top
	}
	f1 := func(t int64) int64 { return t*1103515245 + 12345 }
	f2 := func(t int64) int64 { return t ^ (t>>3 + 7) }
	for i := 0; i < 2000; i++ {
		push(refEvent{int64(i * 7919 % 2003), f1})
	}
	var acc int64
	for i := 0; i < 20_000; i++ {
		e := pop()
		acc += e.fn(e.at)
		fn := f1
		if acc&1 == 0 {
			fn = f2
		}
		push(refEvent{e.at + acc&1023, fn})
	}
	return acc
}

func (m *speedMeter) sortOnce() int64 {
	copy(m.buf, m.src)
	sort.Ints(m.buf)
	return int64(m.buf[len(m.buf)/2])
}
