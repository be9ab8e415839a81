package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// TestTraceDisabledZeroAlloc is the zero-cost-when-disabled guard: with no
// subscriber, the emission helpers must allocate nothing, so an unobserved
// run pays one branch per potential event and no garbage.
func TestTraceDisabledZeroAlloc(t *testing.T) {
	_, rt := newAPURuntime(t)
	if rt.observed() {
		t.Fatal("observation stream active on a default runtime")
	}
	lane := trace.Lane{Node: 1, Track: trace.TrackXfer}
	allocs := testing.AllocsPerRun(200, func() {
		rt.chargeSpan(nil, lane, trace.Transfer, spanMove, 0, 10, 64)
		rt.noteStreamHop(1, 0, 10, 64)
		rt.noteStreamInflight(5, 1, 0)
		rt.emitInstant(lane, "steal", 5, 1)
		rt.emitCounter(lane, "depth", 5, 3)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %.1f times per emission round", allocs)
	}
}

// BenchmarkChargeSpanDisabled is the -benchmem witness for the same
// property: the per-charge cost with tracing off is a branch, not garbage.
func BenchmarkChargeSpanDisabled(b *testing.B) {
	e := newBenchRuntime(b)
	lane := trace.Lane{Node: 1, Track: trace.TrackXfer}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.chargeSpan(nil, lane, trace.Transfer, spanMove, 0, 10, 64)
	}
}

// newBenchRuntime mirrors newAPURuntime for benchmarks.
func newBenchRuntime(b *testing.B) *Runtime {
	b.Helper()
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 256, DRAMMiB: 32})
	return NewRuntime(e, tree, DefaultOptions())
}

// eventLog is a test subscriber keeping every event, and each span's proc.
type eventLog struct {
	procs  []*sim.Proc
	events []trace.Event
}

func (l *eventLog) Span(p *sim.Proc, lane trace.Lane, cat trace.Category, name string, start, end sim.Time, value int64) {
	l.procs = append(l.procs, p)
	l.events = append(l.events, trace.Event{Kind: trace.KindSpan, Cat: cat, Name: name, Lane: lane,
		Start: start, Dur: end - start, Value: value})
}

func (l *eventLog) Instant(lane trace.Lane, name string, t sim.Time, value int64) {
	l.events = append(l.events, trace.Event{Kind: trace.KindInstant, Name: name, Lane: lane, Start: t, Value: value})
}

func (l *eventLog) Counter(lane trace.Lane, name string, t sim.Time, value int64) {
	l.events = append(l.events, trace.Event{Kind: trace.KindCounter, Name: name, Lane: lane, Start: t, Value: value})
}

// TestTraceObserverWithoutRecorder checks a subscriber alone activates the
// observation stream (the profiled scheduler's mode), sees spans with the
// proc that made them, instants and counters, and that removing it
// deactivates the stream.
func TestTraceObserverWithoutRecorder(t *testing.T) {
	e, rt := newAPURuntime(t)
	log := &eventLog{}
	remove := rt.Subscribe(log)
	if !rt.observed() {
		t.Fatal("subscriber did not activate the observation stream")
	}
	var proc *sim.Proc
	e.Spawn("charger", func(p *sim.Proc) {
		proc = p
		rt.chargeSpan(p, trace.Lane{Node: 0, Track: trace.TrackIO}, trace.IO, spanMove, 0, 7, 9)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rt.emitInstant(cacheLane(1), "hit", 8, 64)
	rt.emitCounter(trace.Lane{Node: 1, Track: trace.TrackQueue}, "depth", 9, 3)
	if len(log.events) != 3 {
		t.Fatalf("subscriber saw %d events, want 3: %+v", len(log.events), log.events)
	}
	if ev := log.events[0]; ev.Kind != trace.KindSpan || ev.Dur != 7 || ev.Value != 9 || log.procs[0] != proc {
		t.Fatalf("span = %+v from %v, want 7ns/9B from the charging proc", ev, log.procs[0])
	}
	if ev := log.events[1]; ev.Kind != trace.KindInstant || ev.Start != 8 || ev.Value != 64 {
		t.Fatalf("instant = %+v", ev)
	}
	if ev := log.events[2]; ev.Kind != trace.KindCounter || ev.Value != 3 {
		t.Fatalf("counter = %+v", ev)
	}
	remove()
	if rt.observed() {
		t.Fatal("observation stream still active after the subscriber was removed")
	}
	rt.chargeSpan(nil, trace.Lane{Node: 0, Track: trace.TrackIO}, trace.IO, spanMove, 0, 7, 9)
	if len(log.events) != 3 {
		t.Fatal("removed subscriber still invoked")
	}
}

// TestChargeSpanKeepsBreakdownAndRecorderInStep asserts the single-charge-
// point invariant at its source: one chargeSpan call adds the identical
// duration to the Breakdown category and to the recorder's busy tally.
func TestChargeSpanKeepsBreakdownAndRecorderInStep(t *testing.T) {
	rec := trace.NewRecorder(trace.Options{})
	_, rt := newAPURuntime(t)
	rt.Subscribe(recorderObserver{rec})
	before := rt.bd.Busy(trace.Transfer)
	rt.chargeSpan(nil, trace.Lane{Node: 1, Track: trace.TrackXfer}, trace.Transfer, spanMove, 100, 350, 4096)
	if d := rt.bd.Busy(trace.Transfer) - before; d != 250 {
		t.Fatalf("breakdown gained %v, want 250", d)
	}
	if d := rec.CategoryBusy(trace.Transfer); d != 250 {
		t.Fatalf("recorder tallied %v, want 250", d)
	}
	evs := rec.Events()
	if len(evs) != 1 || evs[0].Value != 4096 || evs[0].Start != 100 || evs[0].Dur != 250 {
		t.Fatalf("recorded %+v", evs)
	}
}
