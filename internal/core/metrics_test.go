package core

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// newMetricsRuntime builds the APU runtime with a metrics registry (and an
// optional sampler tick) attached.
func newMetricsRuntime(t *testing.T, tick sim.Time) (*Runtime, *obs.Registry) {
	t.Helper()
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 256, DRAMMiB: 32})
	opts := DefaultOptions()
	opts.Metrics = obs.NewRegistry()
	if tick > 0 {
		opts.Sampler = obs.NewSampler(opts.Metrics, obs.SamplerOptions{Tick: tick})
	}
	return NewRuntime(e, tree, opts), opts.Metrics
}

// metricsWorkload is a small move+compute program touching several charge
// categories.
func metricsWorkload(rt *Runtime) error {
	_, err := rt.Run("metrics-workload", func(c *Ctx) error {
		root := c.Node()
		dram := root.Children[0]
		src, err := c.AllocAt(root, 1<<16)
		if err != nil {
			return err
		}
		dst, err := c.AllocAt(dram, 1<<16)
		if err != nil {
			return err
		}
		if err := c.MoveData(dst, src, 0, 0, 1<<16); err != nil {
			return err
		}
		c.ChargeCPU(sim.Microseconds(500))
		c.ChargeGPU(sim.Microseconds(250))
		return nil
	})
	return err
}

// TestMetricsDisabledZeroAlloc is the acceptance criterion: without a
// registry (or any other subscriber) the metrics hooks are one branch each.
func TestMetricsDisabledZeroAlloc(t *testing.T) {
	_, rt := newAPURuntime(t)
	if rt.Metrics() != nil {
		t.Fatal("metrics enabled on a default runtime")
	}
	lane := trace.Lane{Node: 1, Track: trace.TrackXfer}
	depth := rt.NewQueueDepthSlot(1)
	allocs := testing.AllocsPerRun(200, func() {
		rt.chargeSpan(nil, lane, trace.Transfer, spanMove, 0, 10, 64)
		depth.Set(5)
		rt.emitInstant(trace.Lane{Node: 1, Track: trace.TrackQueue}, instantSteal, 5, 0)
		rt.NoteSchedPlacement("affinity", 1, 64)
	})
	if allocs != 0 {
		t.Fatalf("disabled metrics allocated %.1f times per round", allocs)
	}
}

// TestMetricsReconcileWithBreakdown asserts the bit-for-bit invariant: the
// registry's busy counters equal the Breakdown's per-category totals, the
// cache counters equal CacheStats, and moved bytes equal the spans' byte
// values — all fed from the same charge point or read through from the
// same source.
func TestMetricsReconcileWithBreakdown(t *testing.T) {
	rt, reg := newMetricsRuntime(t, 0)
	if err := metricsWorkload(rt); err != nil {
		t.Fatal(err)
	}
	flat := reg.Flatten()
	for _, cat := range trace.Categories {
		want := int64(rt.Breakdown().Busy(cat))
		got := int64(flat[`northup_busy_ns_total{cat="`+cat.String()+`"}`])
		if got != want {
			t.Errorf("busy[%v]: registry %d, breakdown %d", cat, got, want)
		}
	}
	cs := rt.CacheStats()
	if got := int64(flat["northup_cache_hits_total"]); got != cs.Hits {
		t.Errorf("cache hits: registry %d, stats %d", got, cs.Hits)
	}
	// Histogram sums must reconcile too: sum of span durations per category
	// equals the busy counter.
	for _, cat := range trace.Categories {
		sum := int64(flat[`northup_span_ns_sum{cat="`+cat.String()+`"}`])
		busy := int64(flat[`northup_busy_ns_total{cat="`+cat.String()+`"}`])
		if sum != busy {
			t.Errorf("span_ns sum[%v] %d != busy %d", cat, sum, busy)
		}
	}
	if flat["northup_elapsed_ns"] <= 0 {
		t.Error("elapsed gauge not set by Run")
	}
}

// TestMetricsRunDeterministic runs the same program twice and wants
// byte-identical Prometheus and JSON exports — the registry-determinism
// satellite at the runtime level.
func TestMetricsRunDeterministic(t *testing.T) {
	export := func() (string, string) {
		rt, reg := newMetricsRuntime(t, sim.Microseconds(100))
		if err := metricsWorkload(rt); err != nil {
			t.Fatal(err)
		}
		var prom, js bytes.Buffer
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteJSON(&js, rt.MetricsSampler()); err != nil {
			t.Fatal(err)
		}
		return prom.String(), js.String()
	}
	p1, j1 := export()
	p2, j2 := export()
	if p1 != p2 {
		t.Fatalf("Prometheus exports differ between identical runs:\n--- 1 ---\n%s--- 2 ---\n%s", p1, p2)
	}
	if j1 != j2 {
		t.Fatalf("JSON exports differ between identical runs:\n--- 1 ---\n%s--- 2 ---\n%s", j1, j2)
	}
}

// TestMetricsSamplerSeries checks an attached sampler produces gauge
// series with in-order timestamps.
func TestMetricsSamplerSeries(t *testing.T) {
	rt, _ := newMetricsRuntime(t, sim.Microseconds(50))
	if err := metricsWorkload(rt); err != nil {
		t.Fatal(err)
	}
	series := rt.MetricsSampler().Series()
	if len(series) == 0 {
		t.Fatal("sampler produced no series")
	}
	for _, s := range series {
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].T <= s.Points[i-1].T {
				t.Fatalf("series %s timestamps not increasing: %+v", s.Name, s.Points)
			}
		}
	}
}

// TestMetricsMovedBytes checks per-node byte totals match what the moves
// actually carried.
func TestMetricsMovedBytes(t *testing.T) {
	rt, reg := newMetricsRuntime(t, 0)
	if err := metricsWorkload(rt); err != nil {
		t.Fatal(err)
	}
	flat := reg.Flatten()
	total := 0.0
	for name, v := range flat {
		if len(name) > len("northup_moved_bytes_total") && name[:len("northup_moved_bytes_total")] == "northup_moved_bytes_total" {
			total += v
		}
	}
	if int64(total) != 1<<16 {
		t.Fatalf("moved bytes total %v, want %d", total, 1<<16)
	}
}

// TestMetricsFollowTheEventStream checks the registry builds its
// event-driven series from the published events alone: steal instants
// count steals, ring counters set the node's occupancy gauge, and a
// node's first stream hop registers its hop-bandwidth gauge, which reads
// the runtime's hop aggregate through.
func TestMetricsFollowTheEventStream(t *testing.T) {
	rt, reg := newMetricsRuntime(t, 0)
	queue := trace.Lane{Node: 1, Track: trace.TrackQueue}
	rt.emitInstant(queue, instantSteal, 10, 0)
	rt.emitInstant(queue, instantSteal, 20, 1)
	rt.emitInstant(queue, "place", 30, 7) // not a steal
	rt.noteStreamRing(40, 1, 2)
	rt.noteStreamHop(2, 0, 1000, 4000)
	flat := reg.Flatten()
	if got := flat[mQueueSteals]; got != 2 {
		t.Errorf("steals = %v, want 2", got)
	}
	if got := flat[mStreamRing+`{node="1"}`]; got != 2 {
		t.Errorf("ring occupancy = %v, want 2", got)
	}
	if got := flat[mStreamHopBW+`{node="2"}`]; got != 4e9 {
		t.Errorf("hop bandwidth = %v, want 4e9 bytes/s", got)
	}
	rt.noteStreamHop(2, 1000, 3000, 4000)
	if got := reg.Flatten()[mStreamHopBW+`{node="2"}`]; got != 8000/(3000/1e9) {
		t.Errorf("hop bandwidth after a second hop = %v, want %v", got, 8000/(3000/1e9))
	}
}

// TestReadThroughCountersNeedNoSync checks the registry reads the
// runtime's own stat structs at export time: a fault-injected run's
// resilience and injector counters, and the elapsed gauge, match their
// sources with no sync step in between.
func TestReadThroughCountersNeedNoSync(t *testing.T) {
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 256, DRAMMiB: 32})
	opts := DefaultOptions()
	opts.Metrics = obs.NewRegistry()
	opts.Faults = fault.New(e, fault.Config{Seed: 3, TransferFailRate: 0.3})
	rt := NewRuntime(e, tree, opts)
	for i := 0; i < 8; i++ {
		if err := metricsWorkload(rt); err != nil {
			t.Fatal(err)
		}
	}
	flat := opts.Metrics.Flatten()
	res, fs := rt.Resilience(), opts.Faults.Stats()
	if res.Faults == 0 {
		t.Fatal("no faults at a 30% transfer failure rate")
	}
	for name, want := range map[string]int64{
		"northup_faults_total":               res.Faults,
		"northup_retries_total":              res.Retries,
		"northup_fault_transfer_fails_total": fs.TransferFails,
		mElapsedNS:                           int64(e.Now()),
	} {
		if got := int64(flat[name]); got != want {
			t.Errorf("%s = %d, source holds %d", name, got, want)
		}
	}
}
