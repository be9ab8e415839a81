package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the tables
// in metrics.go and workloads.go must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		better := "higher"
		if d.lower {
			better = "lower"
		}
		if m.Name != d.name || m.Unit != d.unit || m.Better != better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %s (%s)", i, m, d.name, d.unit)
		}
	}
}

// quickCfg runs a workload for two measured units, with the serve ladder
// shortened to one 1x point and no CPU profile.
var quickCfg = runConfig{seed: 7, minUnits: 2, setups: 1, opts: options{serveShort: true, noProfile: true}}

// TestWorkloadsEmitEveryMetricAndRepeat runs each workload traced, as one
// invocation would, then runs the same units again on a fresh runner: every
// deterministic metric must repeat bit for bit. The host-time metrics
// hostLayers adds (cpu_share.*, sim.dispatch_ns.*,
// taskgraph.placement_us_per_task, obs.overhead_share) need a CPU profile, a
// ping loop and extra ops; TestParsePprofTop covers the first. Without the
// process-wide CPU profile the workloads can run in parallel, which changes
// host times but nothing the test checks.
func TestWorkloadsEmitEveryMetricAndRepeat(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := quickCfg
			cfg.traceDir = t.TempDir()
			tr := newTracer()
			res, _, err := runWorkload(w, cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.writeSpans(cfg.traceDir); err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%d of %d ops failed: %v", res.Failed, res.Attempted, res.Notes)
			}
			res.Traced = false
			untraced := res.line()
			res.Traced = true
			traced := res.line()
			for _, m := range b.EndToEnd {
				v, ok := untraced.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("end-to-end %s missing or without unit %s: %+v", m.Name, m.Unit, v)
				} else if v.Value == 0 {
					t.Errorf("end-to-end %s is 0", m.Name)
				}
			}
			for _, m := range b.PerLayer {
				if v, ok := traced.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("per-layer %s missing or without unit %s: %+v", m.Name, m.Unit, v)
				}
			}

			r, err := w.newRunner(cfg.seed, cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			acc := measure(r, cfg.minUnits, 0, nil, nil, nil)
			again, err := layerView(r, acc, cfg.minUnits)
			if err != nil {
				t.Fatal(err)
			}
			again["virtual_ops_per_s"] = acc.virtualOpsPerSec()
			for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
				if !d.deterministic {
					continue
				}
				a, ok := res.E2E[d.name]
				if !ok {
					a = res.Layer[d.name]
				}
				if c := again[d.name]; math.Float64bits(a) != math.Float64bits(c) {
					t.Errorf("deterministic %s differs across runs: %v vs %v", d.name, a, c)
				}
			}
		})
	}
}

func TestCorruptedOutputFails(t *testing.T) {
	t.Parallel()
	w := findWorkload("functional-verify")
	for _, corrupt := range []bool{false, true} {
		r, err := w.newRunner(3, options{corrupt: corrupt})
		if err != nil {
			t.Fatal(err)
		}
		acc := measure(r, 3, 0, nil, nil, nil)
		want := 0
		if corrupt {
			want = 3
		}
		if acc.attempted != 3 || acc.failed != want {
			t.Errorf("corrupt=%v: %d of %d ops failed, want %d (first error %v)",
				corrupt, acc.failed, acc.attempted, want, acc.firstErr)
		}
	}
}

// syntheticRecords returns n records of one workload, one per seed, whose
// host-time metrics wobble a little from run to run and whose deterministic
// metric does not. factor multiplies metric's value on the seeds that seeds
// selects.
func syntheticRecords(n int, metric string, factor float64, seeds func(int) bool) []record {
	var recs []record
	for i := 0; i < n; i++ {
		wobble := 1 + 0.01*float64(i%5-2)
		r := record{Workload: "steal-fine", Seed: int64(i)}
		r.Metrics = map[string]metricValue{}
		for _, d := range endToEnd {
			v := 10 * wobble
			if d.deterministic {
				v = 10 + float64(i)
			}
			if d.name == metric && seeds(i) {
				v *= factor
			}
			r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
		recs = append(recs, r)
	}
	return recs
}

func TestCompareFlagsSlowdown(t *testing.T) {
	every := func(int) bool { return true }
	parent := syntheticRecords(10, "", 1, every)
	unchanged := func(d metricDef) string {
		if d.deterministic {
			return verdictIdentical
		}
		return verdictWithin
	}
	for _, c := range []struct {
		metric string
		factor float64
		seeds  func(int) bool
		want   string
	}{
		{"", 1, every, ""},
		// op_ms_mean's bound is 25%: a steady 15% slowdown is flagged as
		// slower, a 30% one as a regression.
		{"op_ms_mean", 1.15, every, verdictSlower},
		{"op_ms_mean", 1.30, every, verdictRegression},
		// virtual_ops_per_s repeats exactly for a seed: 9% less on one
		// seed is a regression, whatever its bound.
		{"virtual_ops_per_s", 0.91, func(i int) bool { return i == 3 }, verdictRegression},
		{"virtual_ops_per_s", 1.01, func(i int) bool { return i == 3 }, verdictGain},
	} {
		rows := compareSets(parent, syntheticRecords(10, c.metric, c.factor, c.seeds))
		if len(rows) != len(endToEnd) {
			t.Fatalf("%d rows, want one per end-to-end metric", len(rows))
		}
		for i, row := range rows {
			want := unchanged(endToEnd[i])
			if row.Metric == c.metric {
				want = c.want
			}
			if row.Verdict != want {
				t.Errorf("%s x%v: %s: %s, want %s", c.metric, c.factor, row.Metric, row.Verdict, want)
			}
		}
	}
	if row := comparePairs(endToEnd[1], "x", []float64{1, 2}, []float64{1, 2}); row.Verdict != verdictFewPairs {
		t.Errorf("two pairs: %s, want %s", row.Verdict, verdictFewPairs)
	}

	dir := t.TempDir()
	write := func(name string, recs []record) string {
		var b strings.Builder
		for _, r := range recs {
			if err := writeJSONLine(&b, r); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	p := write("parent.jsonl", parent)
	same := write("same.jsonl", syntheticRecords(10, "", 1, every))
	worse := write("worse.jsonl", syntheticRecords(10, "virtual_ops_per_s", 0.91, func(i int) bool { return i == 3 }))
	if code := runCompare(p, []string{same}, io.Discard, io.Discard); code != 0 {
		t.Errorf("-compare on identical records exits %d, want 0", code)
	}
	if code := runCompare(p, []string{worse}, io.Discard, io.Discard); code != 1 {
		t.Errorf("-compare on a virtual-time regression exits %d, want 1", code)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles 1..10 = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, med, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles 1..3 = %v %v %v", q1, med, q3)
	}
}

func TestParsePprofTop(t *testing.T) {
	text := `Type: cpu
Showing nodes accounting for 1s, 100% of 1s total
      flat  flat%   sum%        cum   cum%
     0.50s 50.00% 50.00%      0.50s 50.00%  repro/internal/sim.(*Engine).dispatch
   250ms 25.00% 75.00%      0.30s 30.00%  runtime.mallocgc
   150ms 15.00% 90.00%      0.20s 20.00%  repro/internal/sched.(*Deque[go.shape.*repro/internal/serve.job]).PopTail
   100ms 10.00%   100%      0.10s 10.00%  repro/internal/apps/gemm.TileKernel.func1 (inline)
`
	got, err := parsePprofTop(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 0.5, "go-runtime": 0.25, "sched": 0.15, "apps-gemm": 0.1}
	for _, m := range cpuShareModules {
		if math.Abs(got[m]-want[m]) > 1e-12 {
			t.Errorf("cpu_share.%s = %v, want %v", m, got[m], want[m])
		}
	}
}
