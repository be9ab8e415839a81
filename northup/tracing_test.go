package northup_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/northup"
)

// tracedGEMM runs one fixed GEMM workload with a fresh engine/tree/runtime
// and an attached recorder, returning the run stats, the tree, and the
// recorder.
func tracedGEMM(t *testing.T, phantom bool, n int) (northup.RunStats, *northup.Tree, *northup.TraceRecorder) {
	t.Helper()
	e := northup.NewEngine()
	tree := northup.APU(e, northup.APUConfig{Storage: northup.SSD,
		StorageMiB: 512, DRAMMiB: 16, WithCPU: true})
	opts := northup.DefaultOptions()
	opts.Phantom = phantom
	rec := northup.NewTraceRecorder(northup.TraceOptions{})
	opts.Trace = rec
	rt := northup.NewRuntime(e, tree, opts)
	res, err := northup.GEMMNorthup(rt, northup.GEMMConfig{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats, tree, rec
}

// TestChromeExportGolden is the determinism gate: two identical runs must
// export byte-identical Chrome traces, and the file must validate, carry
// distinct per-node lanes, and show compute overlapping movement lanes.
func TestChromeExportGolden(t *testing.T) {
	export := func() []byte {
		_, tree, rec := tracedGEMM(t, false, 192)
		var buf bytes.Buffer
		if err := northup.WriteChromeTrace(&buf, rec.Events(),
			northup.TraceExportOptions{NodeLabel: northup.TraceNodeLabeler(tree)}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical runs exported different traces (%d vs %d bytes)", len(a), len(b))
	}
	if err := northup.ValidateChromeTrace(a); err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	lanes := map[string]bool{}
	parsed, err := northup.ParseChromeTrace(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range northup.TraceLaneNames(parsed.Events) {
		lanes[name] = true
	}
	for _, want := range []string{"node0/io", "node1/gpu", "node1/alloc", "runtime"} {
		if !lanes[want] {
			t.Errorf("trace is missing lane %s (have %v)", want, lanes)
		}
	}
	if !strings.Contains(string(a), `"process_name"`) {
		t.Error("export lacks process_name metadata")
	}
}

// TestEventTotalsMatchBreakdown is the bit-for-bit accounting check: the
// recorder's per-category busy tallies and the sum of span durations per
// category must both equal the legacy Breakdown, since every charge flows
// through the same code path.
func TestEventTotalsMatchBreakdown(t *testing.T) {
	stats, _, rec := tracedGEMM(t, false, 192)
	if rec.Dropped() > 0 {
		t.Fatalf("ring dropped %d events; totals test needs the full stream", rec.Dropped())
	}
	var fromEvents [8]northup.Time
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindSpan && ev.Cat != trace.None {
			fromEvents[ev.Cat] += ev.Dur
		}
	}
	for _, c := range trace.Categories {
		want := stats.Breakdown.Busy(c)
		if got := rec.CategoryBusy(c); got != want {
			t.Errorf("%v: recorder tally %v != breakdown %v", c, got, want)
		}
		if got := fromEvents[c]; got != want {
			t.Errorf("%v: summed span durations %v != breakdown %v", c, got, want)
		}
	}
}

// TestCriticalPathEqualsMakespan checks the critical-path walker attributes
// exactly the run's elapsed virtual time: the events span [0, Elapsed], the
// path tiles that window, and its length is the makespan.
func TestCriticalPathEqualsMakespan(t *testing.T) {
	stats, _, rec := tracedGEMM(t, false, 192)
	events := rec.Events()
	sum := northup.SummarizeTrace(events, northup.TraceSummaryOptions{})
	if sum.Start != 0 || sum.End != stats.Elapsed {
		t.Fatalf("event window [%v,%v), want [0,%v)", sum.Start, sum.End, stats.Elapsed)
	}
	cp := northup.TraceCriticalPath(events, northup.TraceSummaryOptions{})
	if cp.Length() != stats.Elapsed {
		t.Fatalf("critical path %v != makespan %v", cp.Length(), stats.Elapsed)
	}
	at := cp.Start
	for i, seg := range cp.Segments {
		if seg.Start != at {
			t.Fatalf("segment %d starts at %v, want %v (path must tile the window)", i, seg.Start, at)
		}
		at = seg.End
	}
	if at != cp.End {
		t.Fatalf("path ends at %v, want %v", at, cp.End)
	}
}

// TestUtilizationBounded checks the interval-union metric: no lane can be
// busier than the window, whatever overlap the spans have.
func TestUtilizationBounded(t *testing.T) {
	_, tree, rec := tracedGEMM(t, false, 192)
	sum := northup.SummarizeTrace(rec.Events(), northup.TraceSummaryOptions{
		NominalBW: northup.NominalBandwidth(tree)})
	window := sum.Window()
	for _, nm := range sum.Nodes {
		for _, lm := range nm.Lanes {
			if u := lm.Utilization(window); u < 0 || u > 1 {
				t.Errorf("lane %v utilization %.3f outside [0,1]", lm.Lane, u)
			}
		}
	}
	if !strings.Contains(sum.Report(), "util") {
		t.Error("summary report lacks the utilization column")
	}
}

// TestRuntimeOverheadBelowOnePercent asserts the paper's §V-B bound at
// paper-like scale: runtime bookkeeping stays under 1% of elapsed time.
// (Small toy runs sit above the bound — overhead amortizes with real work —
// so this uses a phantom paper-scale matrix.)
func TestRuntimeOverheadBelowOnePercent(t *testing.T) {
	stats, _, _ := tracedGEMM(t, true, 2048)
	frac := stats.Breakdown.FractionOfTotal(trace.Runtime)
	if frac >= 0.01 {
		t.Fatalf("runtime bookkeeping %.2f%% of elapsed, §V-B bounds it below 1%%", 100*frac)
	}
	if !strings.Contains(stats.Breakdown.Report(), "of-elapsed") {
		t.Error("breakdown report lacks the of-elapsed column")
	}
}

// observedOutcome is what an observer must never change: the makespan, the
// per-category breakdown, and the cache, resilience and stream counters.
type observedOutcome struct {
	Elapsed    northup.Time
	Breakdown  northup.Breakdown
	Cache      northup.CacheStats
	Resilience northup.ResilienceStats
	Stream     northup.StreamStats
}

// TestTracingOffChangesNothing runs every execution mode the observation
// stream reaches — recursive and task-graph schedules, the staging cache,
// the streamed proc pump under faults, work stealing and profile-guided
// mapping — under four observer settings, and requires identical outcomes:
// observation must observe the run, never perturb it.
func TestTracingOffChangesNothing(t *testing.T) {
	apu := func(e *northup.Engine) *northup.Tree {
		return northup.APU(e, northup.APUConfig{Storage: northup.SSD,
			StorageMiB: 512, DRAMMiB: 16, WithCPU: true})
	}
	smallAPU := func(e *northup.Engine) *northup.Tree {
		return northup.APU(e, northup.APUConfig{Storage: northup.SSD,
			StorageMiB: 64, DRAMMiB: 4, WithCPU: true})
	}
	discrete := func(e *northup.Engine) *northup.Tree {
		return northup.Discrete(e, northup.DiscreteConfig{Storage: northup.SSD,
			StorageMiB: 64, DRAMMiB: 8, GPUMemMiB: 4})
	}
	affinity := northup.TaskOptions{Affinity: true}
	runs := []struct {
		name   string
		tree   func(*northup.Engine) *northup.Tree
		cache  int64  // staging-cache bytes, 0 = off
		faults string // fault spec, "" = none
		run    func(rt *northup.Runtime) (northup.RunStats, error)
	}{
		{name: "gemm-recursive", tree: apu, run: func(rt *northup.Runtime) (northup.RunStats, error) {
			res, err := northup.GEMMNorthup(rt, northup.GEMMConfig{N: 192, Seed: 1})
			if err != nil {
				return northup.RunStats{}, err
			}
			return res.Stats, nil
		}},
		{name: "gemm-tasks-affinity-cache", tree: smallAPU, cache: 256 << 10, run: func(rt *northup.Runtime) (northup.RunStats, error) {
			res, _, err := northup.GEMMTasks(rt, northup.GEMMConfig{N: 256, Seed: 11, ShardDim: 64}, affinity)
			if err != nil {
				return northup.RunStats{}, err
			}
			return res.Stats, nil
		}},
		{name: "spmv-tasks-affinity-cache", tree: smallAPU, cache: 512 << 10, run: func(rt *northup.Runtime) (northup.RunStats, error) {
			res, _, err := northup.SpMVTasks(rt, northup.SpMVConfig{N: 4096, AvgNNZ: 16,
				Kind: northup.SparseUniform, Seed: 7, Iters: 3}, affinity)
			if err != nil {
				return northup.RunStats{}, err
			}
			return res.Stats, nil
		}},
		{name: "hotspot-streamed-discrete-faults", tree: discrete, faults: "seed=9,rate=0.05",
			run: func(rt *northup.Runtime) (northup.RunStats, error) {
				res, err := northup.HotSpotNorthup(rt, northup.HotSpotConfig{N: 64, Seed: 6, ChunkDim: 32,
					Iters: 3, Passes: 2, Streamed: true,
					StreamOpts: northup.StreamOptions{SubChunks: 3, MinSubChunkBytes: 512}})
				if err != nil {
					return northup.RunStats{}, err
				}
				return res.Stats, nil
			}},
		{name: "hotspot-steal", tree: apu, run: func(rt *northup.Runtime) (northup.RunStats, error) {
			res, err := northup.HotSpotSteal(rt, northup.StealConfig{
				M: 256, ChunkDim: 64, Seed: 1, Iters: 2, Mode: northup.CPUGPU})
			if err != nil {
				return northup.RunStats{}, err
			}
			return res.Stats, nil
		}},
		{name: "hotspot-profiled", tree: apu, run: func(rt *northup.Runtime) (northup.RunStats, error) {
			res, err := northup.HotSpotProfiled(rt, northup.HotSpotConfig{N: 128, Seed: 4, ChunkDim: 32, Iters: 2})
			if err != nil {
				return northup.RunStats{}, err
			}
			return res.Stats, nil
		}},
	}
	observers := []struct {
		name              string
		recorder, metrics bool
	}{
		{"none", false, false},
		{"recorder", true, false},
		{"registry+sampler", false, true},
		{"recorder+registry", true, true},
	}
	for _, r := range runs {
		var want observedOutcome
		for i, o := range observers {
			e := northup.NewEngine()
			opts := northup.DefaultOptions()
			if r.cache > 0 {
				opts.Cache = northup.CacheOptions{Enabled: true, CapacityBytes: r.cache}
			}
			if r.faults != "" {
				plan, err := northup.ParseFaults(r.faults)
				if err != nil {
					t.Fatal(err)
				}
				opts.Faults = plan.Inject(e)
			}
			if o.recorder {
				opts.Trace = northup.NewTraceRecorder(northup.TraceOptions{})
			}
			if o.metrics {
				opts.Metrics = northup.NewMetricsRegistry()
				if !o.recorder {
					opts.Sampler = northup.NewMetricsSampler(opts.Metrics,
						northup.SamplerOptions{Tick: 10 * northup.Microsecond})
				}
			}
			rt := northup.NewRuntime(e, r.tree(e), opts)
			stats, err := r.run(rt)
			if err != nil {
				t.Fatalf("%s/%s: %v", r.name, o.name, err)
			}
			got := observedOutcome{stats.Elapsed, stats.Breakdown, rt.CacheStats(),
				rt.Resilience(), rt.StreamStats()}
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s: observers %s changed the run:\n got  %+v\n want %+v", r.name, o.name, got, want)
			}
		}
	}
}

// TestStealTraceCarriesQueueTelemetry runs the stealing stencil traced and
// checks the queue-depth counters and pop totals surface through the trace
// and result — and that the scheduler detaches its queue monitors when the
// run ends, leaving the shared tree clean for the next job.
func TestStealTraceCarriesQueueTelemetry(t *testing.T) {
	e := northup.NewEngine()
	tree := northup.APU(e, northup.APUConfig{Storage: northup.SSD,
		StorageMiB: 256, DRAMMiB: 16, WithCPU: true})
	opts := northup.DefaultOptions()
	rec := northup.NewTraceRecorder(northup.TraceOptions{})
	opts.Trace = rec
	rt := northup.NewRuntime(e, tree, opts)
	res, err := northup.HotSpotSteal(rt, northup.StealConfig{
		M: 256, ChunkDim: 64, Seed: 1, Iters: 2, Mode: northup.CPUGPU})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pops+res.Steals == 0 {
		t.Fatal("steal run reports no task executions")
	}
	sum := northup.SummarizeTrace(rec.Events(), northup.TraceSummaryOptions{})
	if sum.Counters == 0 {
		t.Error("trace has no queue-depth counter samples")
	}
	if sum.Steals != res.Steals {
		t.Errorf("trace counted %d steals, result says %d", sum.Steals, res.Steals)
	}
	// Queue monitors are scoped to the run: once it completes they are
	// detached, so a concurrent admitter never sees another job's deques.
	if strings.Contains(tree.QueueReport(), "pops=") {
		t.Errorf("queue monitors leaked past the run:\n%s", tree.QueueReport())
	}
}
