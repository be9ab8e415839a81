package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// sliceRecorder is the recorder as it was before chunked storage: one
// []Event that grows to its capacity and then wraps. It is the oracle the
// chunked recorder must agree with call for call.
type sliceRecorder struct {
	max     int
	buf     []Event
	head    int
	wrapped bool
	seq     uint64
	dropped int64
	busy    [numCategories]sim.Time
}

func newSliceRecorder(o Options) *sliceRecorder {
	max := o.MaxEvents
	if max <= 0 {
		max = DefaultMaxEvents
	}
	return &sliceRecorder{max: max}
}

func (r *sliceRecorder) Span(lane Lane, cat Category, name string, start, end sim.Time, value int64) {
	if cat >= 0 && cat < numCategories {
		r.busy[cat] += end - start
	}
	r.emit(Event{Kind: KindSpan, Cat: cat, Name: name, Lane: lane, Start: start, Dur: end - start, Value: value})
}

func (r *sliceRecorder) Instant(lane Lane, name string, t sim.Time, value int64) {
	r.emit(Event{Kind: KindInstant, Cat: None, Name: name, Lane: lane, Start: t, Value: value})
}

func (r *sliceRecorder) Counter(lane Lane, name string, t sim.Time, value int64) {
	r.emit(Event{Kind: KindCounter, Cat: None, Name: name, Lane: lane, Start: t, Value: value})
}

func (r *sliceRecorder) emit(ev Event) {
	ev.Seq = r.seq
	r.seq++
	if len(r.buf) < r.max {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.head] = ev
	r.head = (r.head + 1) % r.max
	r.wrapped = true
	r.dropped++
}

func (r *sliceRecorder) Len() int       { return len(r.buf) }
func (r *sliceRecorder) Dropped() int64 { return r.dropped }

func (r *sliceRecorder) CategoryBusy(c Category) sim.Time {
	if c < 0 || c >= numCategories {
		return 0
	}
	return r.busy[c]
}

func (r *sliceRecorder) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	if r.wrapped {
		out = append(out, r.buf[r.head:]...)
		return append(out, r.buf[:r.head]...)
	}
	return append(out, r.buf...)
}

func (r *sliceRecorder) Window() (start, end sim.Time, ok bool) {
	if len(r.buf) == 0 {
		return 0, 0, false
	}
	first := true
	for i := range r.buf {
		ev := &r.buf[i]
		if first || ev.Start < start {
			start = ev.Start
		}
		if first || ev.End() > end {
			end = ev.End()
		}
		first = false
	}
	return start, end, true
}

func (r *sliceRecorder) Reset() {
	r.buf = r.buf[:0]
	r.head = 0
	r.wrapped = false
	r.seq = 0
	r.dropped = 0
	r.busy = [numCategories]sim.Time{}
}

// TestRecorderMatchesSliceOracle drives the chunked recorder and the slice
// oracle with the same random calls. Each ring fills, wraps, crosses a
// chunk boundary on its kept chunks, is reset, and fills across a chunk
// boundary again; small rings are also reset at random. After every call
// Len, Dropped, CategoryBusy and the newest event must match; Window and
// the whole of Events, which scan the ring, are compared at every chunk
// boundary, every wrap, around the reset and every 997th call.
func TestRecorderMatchesSliceOracle(t *testing.T) {
	staticTracks := []string{TrackXfer, TrackIO, TrackGPU, TrackStream, "tg-worker0"}
	staticNames := []string{"move", "kernel", "bookkeeping", "stream-hop", "stream-inflight",
		"steal", "evict", "alloc", "retry-backoff", "move2d", "hit", ""}
	caps := []int{1, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 5, 0}
	for ci, maxEvents := range caps {
		t.Run(fmt.Sprintf("max=%d", maxEvents), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ci + 1)))
			got, want := NewRecorder(Options{MaxEvents: maxEvents}), newSliceRecorder(Options{MaxEvents: maxEvents})
			capacity := want.max
			resetAt := capacity + chunkLen + 10 // after the wrap, past the next chunk boundary
			steps := resetAt + chunkLen + 50
			if maxEvents <= 0 {
				resetAt, steps = 1500, 3000 // the default ring never wraps here
			}
			check := func(step int) {
				if g, w := got.Len(), want.Len(); g != w {
					t.Fatalf("step %d: Len %d, oracle %d", step, g, w)
				}
				if g, w := got.Dropped(), want.Dropped(); g != w {
					t.Fatalf("step %d: Dropped %d, oracle %d", step, g, w)
				}
				for c := None; c <= numCategories; c++ {
					if g, w := got.CategoryBusy(c), want.CategoryBusy(c); g != w {
						t.Fatalf("step %d: CategoryBusy(%v) %v, oracle %v", step, c, g, w)
					}
				}
				if want.Len() > 0 {
					newest := want.buf[len(want.buf)-1]
					if want.wrapped {
						newest = want.buf[(want.head+want.max-1)%want.max]
					}
					if g := got.event(got.seq - 1); g != newest {
						t.Fatalf("step %d: newest event is %+v, oracle %+v", step, g, newest)
					}
				}
				pos := int(want.seq)
				if capacity < 64 || pos%chunkLen <= 1 || pos%chunkLen == chunkLen-1 || pos%capacity <= 1 ||
					step >= resetAt-1 && step <= resetAt+1 || step%997 == 0 || step == steps-1 {
					gs, ge, gok := got.Window()
					ws, we, wok := want.Window()
					if gs != ws || ge != we || gok != wok {
						t.Fatalf("step %d: Window (%v, %v, %v), oracle (%v, %v, %v)", step, gs, ge, gok, ws, we, wok)
					}
					g, w := got.Events(), want.Events()
					if len(g) != len(w) {
						t.Fatalf("step %d: %d events, oracle %d", step, len(g), len(w))
					}
					for i := range g {
						if g[i] != w[i] {
							t.Fatalf("step %d: event %d is %+v, oracle %+v", step, i, g[i], w[i])
						}
					}
				}
			}
			for step := 0; step < steps; step++ {
				lane := Lane{Node: rng.Intn(6) - 1, Track: staticTracks[rng.Intn(len(staticTracks))]}
				name := staticNames[rng.Intn(len(staticNames))]
				if rng.Intn(4) == 0 {
					// Freshly built strings: equal content, new storage.
					lane.Track = "w" + strconv.Itoa(rng.Intn(4))
					name = "n" + strconv.Itoa(rng.Intn(20))
				}
				if rng.Intn(50) == 0 {
					lane.Node = rng.Intn(4000) - 2000 // outside the listed nodes
				}
				// Time advances with jitter, as in a run, so the newest and
				// oldest events tend to hold the window's ends.
				start := sim.Time(step)*1000 + sim.Time(rng.Int63n(3000))
				value := rng.Int63() - rng.Int63()
				switch op := rng.Intn(200); {
				case step == resetAt || capacity < 64 && op == 0:
					got.Reset()
					want.Reset()
				case op < 100:
					cat := Category(rng.Intn(int(numCategories)+3) - 1) // None, real, and out of range
					end := start + sim.Time(rng.Int63n(3000))
					got.Span(lane, cat, name, start, end, value)
					want.Span(lane, cat, name, start, end, value)
				case op < 150:
					got.Instant(lane, name, start, value)
					want.Instant(lane, name, start, value)
				default:
					got.Counter(lane, name, start, value)
					want.Counter(lane, name, start, value)
				}
				check(step)
			}
		})
	}
}

// emitMix is one cycle of a streamed, faulted run's event mix: most events
// are stream counters, bookkeeping and moves on a handful of lanes.
var emitMix = []struct {
	kind EventKind
	lane Lane
	cat  Category
	name string
}{
	{KindCounter, Lane{Node: 1, Track: TrackStream}, None, "stream-inflight"},
	{KindSpan, Lane{Node: NoNode, Track: TrackRuntime}, Runtime, "bookkeeping"},
	{KindSpan, Lane{Node: 1, Track: TrackIO}, IO, "move"},
	{KindSpan, Lane{Node: 2, Track: TrackStream}, None, "stream-hop"},
	{KindCounter, Lane{Node: 2, Track: TrackStream}, None, "stream-inflight"},
	{KindSpan, Lane{Node: NoNode, Track: TrackRuntime}, Runtime, "bookkeeping"},
	{KindSpan, Lane{Node: 2, Track: TrackXfer}, Transfer, "move"},
	{KindSpan, Lane{Node: 2, Track: TrackGPU}, GPUCompute, "kernel"},
	{KindSpan, Lane{Node: 1, Track: TrackAlloc}, BufferSetup, "alloc"},
	{KindInstant, Lane{Node: 2, Track: TrackXfer}, None, "retry-backoff"},
}

// emitOne emits the i-th event of the mix cycle.
func emitOne(r *Recorder, i int) {
	m := &emitMix[i%len(emitMix)]
	t := sim.Time(i) * 1000
	switch m.kind {
	case KindSpan:
		r.Span(m.lane, m.cat, m.name, t, t+500, 4096)
	case KindInstant:
		r.Instant(m.lane, m.name, t, 1)
	default:
		r.Counter(m.lane, m.name, t, int64(i&7))
	}
}

func TestRecordIsCompactAndPointerFree(t *testing.T) {
	if s := unsafe.Sizeof(record{}); s > 40 {
		t.Fatalf("record is %d bytes, want at most 40", s)
	}
	// The collector skips memory whose type holds no pointers; a record
	// field of any other kind would make every chunk scanned.
	rt := reflect.TypeOf(record{})
	for i := 0; i < rt.NumField(); i++ {
		if k := rt.Field(i).Type.Kind(); k < reflect.Bool || k > reflect.Complex128 {
			t.Fatalf("record field %s is a %v", rt.Field(i).Name, k)
		}
	}
}

// TestRecorderEmitAllocs guards the storage: a chunk's worth of emissions
// into a warmed recorder allocates at most the one chunk it fills, and a
// wrapped ring allocates nothing.
func TestRecorderEmitAllocs(t *testing.T) {
	r := NewRecorder(Options{MaxEvents: 64 * chunkLen})
	for i := 0; i < len(emitMix); i++ {
		emitOne(r, i) // interns every lane and name
	}
	i := len(emitMix)
	chunk := func() {
		for end := i + chunkLen; i < end; i++ {
			emitOne(r, i)
		}
	}
	if a := testing.AllocsPerRun(10, chunk); a > 1 {
		t.Fatalf("filling a chunk made %v allocations, want at most 1", a)
	}

	r = NewRecorder(Options{MaxEvents: 2*chunkLen + 5})
	i = 0
	for r.Dropped() == 0 {
		emitOne(r, i)
		i++
	}
	if a := testing.AllocsPerRun(10, chunk); a != 0 {
		t.Fatalf("a wrapped ring made %v allocations per chunk of emissions, want 0", a)
	}
}

// BenchmarkRecorderEmit records one run's worth of events (about what a
// streamed, faulted HotSpot op emits) into a fresh default recorder per
// iteration; B/op is what the ring allocates to hold them.
func BenchmarkRecorderEmit(b *testing.B) {
	const events = 80_000
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		r := NewRecorder(Options{})
		for i := 0; i < events; i++ {
			emitOne(r, i)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}
