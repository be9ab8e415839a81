package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRecorderSpanAccumulatesBusy(t *testing.T) {
	r := NewRecorder(Options{})
	l := Lane{Node: 1, Track: TrackGPU}
	r.Span(l, GPUCompute, "kernel", 100, 400, 64)
	r.Span(l, GPUCompute, "kernel", 500, 900, 64)
	r.Span(Lane{Node: 0, Track: TrackXfer}, Transfer, "move", 0, 250, 1024)
	r.Span(l, None, "task", 0, 900, 0) // structural span: no busy charge

	if got := r.CategoryBusy(GPUCompute); got != 700 {
		t.Fatalf("GPU busy = %v, want 700", got)
	}
	if got := r.CategoryBusy(Transfer); got != 250 {
		t.Fatalf("Transfer busy = %v, want 250", got)
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	start, end, ok := r.Window()
	if !ok || start != 0 || end != 900 {
		t.Fatalf("Window = (%v, %v, %v), want (0, 900, true)", start, end, ok)
	}
}

func TestRecorderRingDropsOldestButKeepsTotals(t *testing.T) {
	r := NewRecorder(Options{MaxEvents: 4})
	l := Lane{Node: 0, Track: TrackCPU}
	for i := 0; i < 10; i++ {
		r.Span(l, CPUCompute, "step", sim.Time(i*10), sim.Time(i*10+5), 0)
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	// Busy totals include the dropped spans (10 spans x 5ns each).
	if got := r.CategoryBusy(CPUCompute); got != 50 {
		t.Fatalf("CPU busy = %v, want 50", got)
	}
	// Events come back in emission order despite the wrap.
	evs := r.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order: seq %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
	if evs[0].Start != 60 {
		t.Fatalf("oldest retained start = %v, want 60", evs[0].Start)
	}
}

func TestRecorderSpanPanicsOnNegativeDuration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on end < start")
		}
	}()
	NewRecorder(Options{}).Span(Lane{}, CPUCompute, "bad", 10, 5, 0)
}

func TestParseCategoryRoundTrips(t *testing.T) {
	for _, c := range Categories {
		got, ok := ParseCategory(c.String())
		if !ok || got != c {
			t.Fatalf("ParseCategory(%q) = (%v, %v), want (%v, true)", c.String(), got, ok, c)
		}
	}
	if _, ok := ParseCategory("task"); ok {
		t.Fatal("ParseCategory(task) should not match a busy category")
	}
}

// sampleEvents builds a small fixed stream used by the export tests.
func sampleEvents() []Event {
	r := NewRecorder(Options{})
	r.Span(Lane{Node: 1, Track: TrackXfer}, Transfer, "move", 0, 300, 4096)
	r.Span(Lane{Node: 1, Track: TrackGPU}, GPUCompute, "kernel", 300, 800, 0)
	r.Span(Lane{Node: 2, Track: TrackIO}, IO, "move", 0, 450, 8192)
	r.Instant(Lane{Node: 1, Track: TrackQueue}, "steal", 350, 2)
	r.Counter(Lane{Node: 1, Track: TrackQueue}, "depth", 400, 3)
	r.Span(Lane{NoNode, TrackRuntime}, Runtime, "bookkeeping", 800, 810, 0)
	return r.Events()
}

func TestChromeExportDeterministicAndValid(t *testing.T) {
	evs := sampleEvents()
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, evs, ChromeExportOptions{}); err != nil {
		t.Fatal(err)
	}
	// Shuffle the input; the writer must normalise the order away.
	shuffled := append([]Event(nil), evs...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	if err := WriteChromeTrace(&b, shuffled, ChromeExportOptions{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("export not deterministic under input reordering:\n%s\nvs\n%s", a.String(), b.String())
	}
	if err := ValidateChromeTrace(a.Bytes()); err != nil {
		t.Fatalf("export failed validation: %v", err)
	}
	for _, want := range []string{`"ph":"X"`, `"ph":"i"`, `"ph":"C"`, `"process_name"`, `"thread_name"`, `"displayTimeUnit":"ns"`} {
		if !strings.Contains(a.String(), want) {
			t.Fatalf("export missing %s:\n%s", want, a.String())
		}
	}
}

func TestChromeExportRoundTrip(t *testing.T) {
	evs := sampleEvents()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, evs, ChromeExportOptions{
		NodeLabel: func(n int) string { return fmt.Sprintf("mem%d", n) },
	}); err != nil {
		t.Fatal(err)
	}
	pt, err := ParseChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if pt.NodeLabels[1] != "mem1" || pt.NodeLabels[2] != "mem2" {
		t.Fatalf("node labels = %v", pt.NodeLabels)
	}
	if len(pt.Events) != len(evs) {
		t.Fatalf("round trip kept %d events, want %d", len(pt.Events), len(evs))
	}
	// Compare against the writer's canonical order.
	want := sortEventsForAnalysis(evs)
	for i, ev := range pt.Events {
		w := want[i]
		if ev.Kind != w.Kind || ev.Name != w.Name || ev.Lane != w.Lane ||
			ev.Start != w.Start || ev.Dur != w.Dur || ev.Value != w.Value {
			t.Fatalf("event %d round-tripped as %+v, want %+v", i, ev, w)
		}
		if ev.Kind == KindSpan && ev.Cat != w.Cat {
			t.Fatalf("event %d category round-tripped as %v, want %v", i, ev.Cat, w.Cat)
		}
	}
}

func TestValidateChromeTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":         `{"traceEvents":`,
		"empty":            `{"traceEvents":[]}`,
		"unknown phase":    `{"traceEvents":[{"ph":"Z","name":"x","ts":1,"pid":1,"tid":1}]}`,
		"missing ts":       `{"traceEvents":[{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"t"}},{"ph":"X","name":"x","dur":1,"pid":1,"tid":1}]}`,
		"negative dur":     `{"traceEvents":[{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"t"}},{"ph":"X","name":"x","ts":1,"dur":-2,"pid":1,"tid":1}]}`,
		"orphan lane":      `{"traceEvents":[{"ph":"X","name":"x","ts":1,"dur":2,"pid":1,"tid":9}]}`,
		"span without dur": `{"traceEvents":[{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"t"}},{"ph":"X","name":"x","ts":1,"pid":1,"tid":1}]}`,
		"unnamed event":    `{"traceEvents":[{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"t"}},{"ph":"i","ts":1,"pid":1,"tid":1}]}`,
	}
	for name, data := range cases {
		if err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Errorf("%s: validation unexpectedly passed", name)
		}
	}
}

// TestChromeTraceTimeRange holds ValidateChromeTrace and ParseChromeTrace
// to refusing, with a message naming the event, a ts, dur or ts+dur of
// 2^63 ns or more, which no sim.Time holds, and to accepting times just
// inside that range. Microsecond floats near 2^63 ns (9223372036854775.808
// us) lie 2 us apart, so ...774 and ...776 are its neighbours.
func TestChromeTraceTimeRange(t *testing.T) {
	for _, tc := range []struct {
		name, ts, dur string
		ok            bool
	}{
		{"1e300", "1e300", "1e300", false},
		{"ts above", "9223372036854776", "0", false},
		{"dur above", "0", "9223372036854776", false},
		{"ts below", "9223372036854774", "0", true},
		{"dur below", "0", "9223372036854774", true},
		{"sum above", "5e15", "5e15", false},
	} {
		data := []byte(`{"traceEvents":[{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"t"}},` +
			`{"ph":"X","name":"edge","ts":` + tc.ts + `,"dur":` + tc.dur + `,"pid":1,"tid":1}]}`)
		verr := ValidateChromeTrace(data)
		pt, perr := ParseChromeTrace(data)
		if tc.ok {
			if verr != nil || perr != nil {
				t.Errorf("%s: validate %v, parse %v; want both to accept", tc.name, verr, perr)
			} else if ev := pt.Events[0]; ev.Start < 0 || ev.Dur < 0 || ev.Start+ev.Dur < ev.Start {
				t.Errorf("%s: parsed start %d dur %d", tc.name, ev.Start, ev.Dur)
			}
			continue
		}
		for _, err := range []error{verr, perr} {
			if err == nil || !strings.Contains(err.Error(), `"edge"`) {
				t.Errorf("%s: error %v, want one naming the event", tc.name, err)
			}
		}
	}
}

func TestTsMicrosExact(t *testing.T) {
	cases := map[sim.Time]string{
		0:       "0.000",
		1:       "0.001",
		999:     "0.999",
		1000:    "1.000",
		1234567: "1234.567",
		-1500:   "-1.500",
	}
	for in, want := range cases {
		if got := tsMicros(in); got != want {
			t.Errorf("tsMicros(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestSummarizeUtilizationAndUnion(t *testing.T) {
	r := NewRecorder(Options{})
	l := Lane{Node: 0, Track: TrackGPU}
	// Overlapping spans: [0,100) and [50,150) must union to 150, not 200.
	r.Span(l, GPUCompute, "kernel", 0, 100, 0)
	r.Span(l, GPUCompute, "kernel", 50, 150, 0)
	// A second lane defines the window end at 200.
	r.Span(Lane{Node: 0, Track: TrackXfer}, Transfer, "move", 0, 200, 2000)

	s := Summarize(r.Events(), SummaryOptions{})
	if s.Window() != 200 {
		t.Fatalf("window = %v, want 200", s.Window())
	}
	nm := s.Node(0)
	if nm == nil {
		t.Fatal("no node 0 metrics")
	}
	gpu := nm.Lane(TrackGPU)
	if gpu.Busy != 150 {
		t.Fatalf("gpu busy = %v, want 150 (interval union)", gpu.Busy)
	}
	if u := gpu.Utilization(s.Window()); u != 0.75 {
		t.Fatalf("gpu utilization = %v, want 0.75", u)
	}
	xfer := nm.Lane(TrackXfer)
	if xfer.Bytes != 2000 {
		t.Fatalf("xfer bytes = %d, want 2000", xfer.Bytes)
	}
	if bw := xfer.BandwidthGBs(); bw != 10 {
		t.Fatalf("xfer bandwidth = %v GB/s, want 10", bw)
	}
}

func TestSummarizeNeverExceedsFullUtilization(t *testing.T) {
	// Many random overlapping spans on one lane: union-based busy can
	// never exceed the window.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		r := NewRecorder(Options{})
		l := Lane{Node: 3, Track: TrackCPU}
		for i := 0; i < 40; i++ {
			start := sim.Time(rng.Intn(1000))
			dur := sim.Time(rng.Intn(500))
			r.Span(l, CPUCompute, "step", start, start+dur, 0)
		}
		s := Summarize(r.Events(), SummaryOptions{})
		for _, nm := range s.Nodes {
			for _, lm := range nm.Lanes {
				if u := lm.Utilization(s.Window()); u > 1.0 {
					t.Fatalf("trial %d: %v utilization %v > 1", trial, lm.Lane, u)
				}
			}
		}
	}
}

func TestSummarizeStealsAndQueueDepth(t *testing.T) {
	r := NewRecorder(Options{})
	ql := Lane{Node: 2, Track: TrackQueue}
	r.Instant(ql, "steal", 10, 0)
	r.Instant(ql, "steal", 20, 0)
	r.Counter(ql, "depth", 10, 4)
	r.Counter(ql, "depth", 20, 8)
	r.Counter(ql, "depth", 30, 0)
	r.Span(Lane{Node: 2, Track: TrackCPU}, CPUCompute, "w", 0, 40, 0)

	s := Summarize(r.Events(), SummaryOptions{})
	nm := s.Node(2)
	if nm.Steals != 2 || s.Steals != 2 {
		t.Fatalf("steals = %d/%d, want 2/2", nm.Steals, s.Steals)
	}
	if nm.QueueMax != 8 {
		t.Fatalf("queue max = %d, want 8", nm.QueueMax)
	}
	if nm.QueueMean != 4 {
		t.Fatalf("queue mean = %v, want 4", nm.QueueMean)
	}
	if !strings.Contains(s.Report(), "steals 2") {
		t.Fatalf("report missing steal line:\n%s", s.Report())
	}
}

func TestCriticalPathTilesWindow(t *testing.T) {
	r := NewRecorder(Options{})
	// load [0,100) -> compute [100,300) -> idle -> store [350,400)
	r.Span(Lane{Node: 1, Track: TrackXfer}, Transfer, "load", 0, 100, 100)
	r.Span(Lane{Node: 1, Track: TrackGPU}, GPUCompute, "compute", 100, 300, 0)
	r.Span(Lane{Node: 1, Track: TrackXfer}, Transfer, "store", 350, 400, 50)
	// A short span shadowed by compute must not appear on the path.
	r.Span(Lane{Node: 0, Track: TrackCPU}, CPUCompute, "minor", 120, 140, 0)

	p := CriticalPath(r.Events(), SummaryOptions{})
	if p.Length() != 400 {
		t.Fatalf("path length = %v, want 400", p.Length())
	}
	var covered sim.Time
	prev := p.Start
	for _, s := range p.Segments {
		if s.Start != prev {
			t.Fatalf("segments do not tile: gap/overlap at %v (segment starts %v)", prev, s.Start)
		}
		if s.End < s.Start {
			t.Fatalf("segment with negative length: %+v", s)
		}
		covered += s.Dur()
		prev = s.End
	}
	if prev != p.End || covered != p.Length() {
		t.Fatalf("segments cover %v ending %v, want %v ending %v", covered, prev, p.Length(), p.End)
	}
	if p.IdleTime() != 50 {
		t.Fatalf("idle = %v, want 50", p.IdleTime())
	}
	labels := make([]string, 0, len(p.Segments))
	for _, s := range p.Segments {
		labels = append(labels, s.Label())
	}
	got := strings.Join(labels, ",")
	want := "node1/xfer load,node1/gpu compute,idle,node1/xfer store"
	if got != want {
		t.Fatalf("path = %s, want %s", got, want)
	}
}

func TestCriticalPathRandomAlwaysEqualsMakespan(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		r := NewRecorder(Options{})
		n := 1 + rng.Intn(30)
		for i := 0; i < n; i++ {
			start := sim.Time(rng.Intn(2000))
			dur := sim.Time(rng.Intn(800))
			lane := Lane{Node: rng.Intn(3), Track: TrackCPU}
			r.Span(lane, CPUCompute, "s", start, start+dur, 0)
		}
		start, end, _ := r.Window()
		p := CriticalPath(r.Events(), SummaryOptions{})
		if p.Length() != end-start {
			t.Fatalf("trial %d: path %v != makespan %v", trial, p.Length(), end-start)
		}
		var sum sim.Time
		prev := p.Start
		for _, s := range p.Segments {
			if s.Start != prev {
				t.Fatalf("trial %d: segments do not tile at %v", trial, prev)
			}
			sum += s.Dur()
			prev = s.End
		}
		if sum != p.Length() || prev != p.End {
			t.Fatalf("trial %d: segment sum %v != length %v", trial, sum, p.Length())
		}
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	p := CriticalPath(nil, SummaryOptions{})
	if p.Length() != 0 || len(p.Segments) != 0 {
		t.Fatalf("empty path = %+v", p)
	}
	// Report must not panic on an empty path.
	_ = p.Report(5)
}

func TestLaneString(t *testing.T) {
	if got := (Lane{Node: 3, Track: TrackGPU}).String(); got != "node3/gpu" {
		t.Fatalf("lane = %q", got)
	}
	if got := (Lane{Node: NoNode, Track: TrackRuntime}).String(); got != "runtime" {
		t.Fatalf("runtime lane = %q", got)
	}
}

// TestChromeExportDroppedEvents checks the completeness metadata: the drop
// count round-trips through the file, a clean trace validates, and a trace
// whose ring overflowed fails validation instead of silently analysing a
// truncated stream.
func TestChromeExportDroppedEvents(t *testing.T) {
	evs := sampleEvents()

	var clean bytes.Buffer
	if err := WriteChromeTrace(&clean, evs, ChromeExportOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(clean.String(), `"northup_dropped_events"`) {
		t.Fatal("export missing the dropped-events metadata")
	}
	if err := ValidateChromeTrace(clean.Bytes()); err != nil {
		t.Fatalf("clean trace failed validation: %v", err)
	}
	pt, err := ParseChromeTrace(clean.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if pt.Dropped != 0 {
		t.Fatalf("clean trace parsed with Dropped=%d", pt.Dropped)
	}

	var lossy bytes.Buffer
	if err := WriteChromeTrace(&lossy, evs, ChromeExportOptions{DroppedEvents: 42}); err != nil {
		t.Fatal(err)
	}
	pt, err = ParseChromeTrace(lossy.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if pt.Dropped != 42 {
		t.Fatalf("Dropped round-tripped as %d, want 42", pt.Dropped)
	}
	err = ValidateChromeTrace(lossy.Bytes())
	if err == nil {
		t.Fatal("incomplete trace passed validation")
	}
	if !strings.Contains(err.Error(), "dropped 42") {
		t.Fatalf("validation error does not name the drop count: %v", err)
	}
}

// TestTopLanesOrderingAndTruncation checks the attribution ranking: busy
// desc, ties by node then track, zero-busy lanes skipped, k truncates.
func TestTopLanesOrderingAndTruncation(t *testing.T) {
	r := NewRecorder(Options{})
	// node0/gpu: overlapping spans union to 150.
	r.Span(Lane{Node: 0, Track: TrackGPU}, GPUCompute, "gemm", 0, 100, 0)
	r.Span(Lane{Node: 0, Track: TrackGPU}, GPUCompute, "gemm", 50, 150, 0)
	// node2/gpu: busy 150 too — ties break toward the lower node ID.
	r.Span(Lane{Node: 2, Track: TrackGPU}, GPUCompute, "gemm", 0, 150, 0)
	// node1/cpu: busy 100.
	r.Span(Lane{Node: 1, Track: TrackCPU}, CPUCompute, "sort", 0, 100, 0)
	// node0/xfer: busy 50.
	r.Span(Lane{Node: 0, Track: TrackXfer}, Transfer, "move", 100, 150, 500)

	s := Summarize(r.Events(), SummaryOptions{})
	want := []Lane{
		{Node: 0, Track: TrackGPU},
		{Node: 2, Track: TrackGPU},
		{Node: 1, Track: TrackCPU},
		{Node: 0, Track: TrackXfer},
	}
	top := s.TopLanes(0)
	if len(top) != len(want) {
		t.Fatalf("TopLanes(0) returned %d lanes, want %d", len(top), len(want))
	}
	for i, lm := range top {
		if lm.Lane != want[i] {
			t.Fatalf("rank %d = %v, want %v (full: %+v)", i, lm.Lane, want[i], top)
		}
	}
	if top[0].Busy != 150 || top[1].Busy != 150 {
		t.Fatalf("tied busy = %v/%v, want 150/150", top[0].Busy, top[1].Busy)
	}
	if got := s.TopLanes(2); len(got) != 2 || got[1].Lane != want[1] {
		t.Fatalf("TopLanes(2) = %+v, want first two ranks", got)
	}

	// Clip the window to [100, 150): node1/cpu leaves the union entirely
	// and must not appear.
	clipped := Summarize(r.Events(), SummaryOptions{Start: 100, End: 150})
	for _, lm := range clipped.TopLanes(0) {
		if lm.Lane == (Lane{Node: 1, Track: TrackCPU}) {
			t.Fatalf("zero-busy lane ranked in clipped window: %+v", lm)
		}
	}
	if got := clipped.TopLanes(1); len(got) != 1 || got[0].Busy != 50 {
		t.Fatalf("clipped TopLanes(1) = %+v, want one 50ns lane", got)
	}
}

// TestTopNamesAggregationAndClipping checks the kernel-level ranking:
// same-name spans sum (no interval union), clipping trims overlap, and
// fully-excluded names vanish.
func TestTopNamesAggregationAndClipping(t *testing.T) {
	r := NewRecorder(Options{})
	r.Span(Lane{Node: 0, Track: TrackGPU}, GPUCompute, "gemm", 0, 100, 0)
	r.Span(Lane{Node: 0, Track: TrackGPU}, GPUCompute, "gemm", 50, 150, 0)
	r.Span(Lane{Node: 1, Track: TrackCPU}, CPUCompute, "sort", 0, 100, 0)
	r.Span(Lane{Node: 0, Track: TrackXfer}, Transfer, "move", 0, 50, 500)

	// Full extent: concurrent gemm spans add to 200 (busy, not union).
	top := TopNames(r.Events(), 0, 0, 0)
	if len(top) != 3 {
		t.Fatalf("TopNames = %+v, want 3 entries", top)
	}
	if top[0].Name != "gemm" || top[0].Busy != 200 || top[0].Spans != 2 {
		t.Fatalf("top name = %+v, want gemm busy 200 over 2 spans", top[0])
	}
	if top[1].Name != "sort" || top[1].Busy != 100 {
		t.Fatalf("second name = %+v, want sort busy 100", top[1])
	}

	// k truncates.
	if got := TopNames(r.Events(), 0, 0, 1); len(got) != 1 || got[0].Name != "gemm" {
		t.Fatalf("TopNames(k=1) = %+v", got)
	}

	// Window [50, 150): gemm clips to 50+100, sort to 50, move drops out.
	win := TopNames(r.Events(), 50, 150, 0)
	if len(win) != 2 {
		t.Fatalf("windowed TopNames = %+v, want move excluded", win)
	}
	if win[0].Name != "gemm" || win[0].Busy != 150 {
		t.Fatalf("windowed gemm = %+v, want busy 150", win[0])
	}
	if win[1].Name != "sort" || win[1].Busy != 50 {
		t.Fatalf("windowed sort = %+v, want busy 50", win[1])
	}
}
