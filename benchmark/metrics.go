package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef describes one reported metric. The end-to-end entries carry the
// bound by which their median may worsen before a change counts as a
// regression; BENCHMARK.json at the repository root lists the same names,
// units, directions and bounds (benchmark_test.go keeps the two in step).
type metricDef struct {
	name  string
	unit  string
	lower bool // lower is better
	bound float64
	// deterministic metrics repeat bit for bit for a given seed and op count.
	deterministic bool
}

// better reports whether x is better than y.
func (d metricDef) better(x, y float64) bool {
	if d.lower {
		return x < y
	}
	return x > y
}

// endToEnd are the metrics a user of the simulator sees. Every workload
// reports each of them; an "op" is one app call sequence, or one completed
// job on serve-open. The host times are scaled to nominal host speed (see
// speed.go). A deterministic metric's bound covers only its spread across
// seeds; -compare allows it no change for a seed (see compareExact).
var endToEnd = []metricDef{
	{name: "ops_per_s", unit: "1/s", bound: 0.25},
	{name: "op_ms_mean", unit: "ms", lower: true, bound: 0.25},
	{name: "op_ms_p90", unit: "ms", lower: true, bound: 0.25},
	{name: "alloc_mb_per_op", unit: "MB", lower: true, bound: 0.1},
	{name: "peak_rss_mb", unit: "MB", lower: true, bound: 0.25},
	{name: "setup_s", unit: "s", lower: true, bound: 0.25},
	{name: "virtual_ops_per_s", unit: "1/s", bound: 0.06, deterministic: true},
}

// cpuShareModules are the buckets of the CPU-profile breakdown, by the
// package of each sample's leaf frame.
var cpuShareModules = []string{
	"sim", "core", "device", "storage", "cache", "taskgraph", "sched", "serve",
	"obs", "trace", "gpu", "workload", "apps-gemm", "apps-hotspot", "apps-spmv",
	"apps-oocsort", "go-runtime", "other",
}

// perLayer are the metrics of single layers, reported by the traced run.
// A metric that does not apply to a workload reads 0 there.
var perLayer = func() []metricDef {
	d := func(name, unit string) metricDef { return metricDef{name: name, unit: unit, deterministic: true} }
	h := func(name, unit string) metricDef { return metricDef{name: name, unit: unit} }
	defs := []metricDef{
		d("sim.events_per_op", "count"),
		d("sim.callback_share", "ratio"),
		d("sim.procs_per_op", "count"),
		h("sim.ns_per_event", "ns"),
		h("sim.engine_share", "ratio"),
		h("sim.dispatch_ns.proc", "ns"),
		h("sim.dispatch_ns.callback", "ns"),
		d("stream.subchunks_per_op", "count"),
		d("stream.hop_moves_per_op", "count"),
		d("stream.async_hop_share", "ratio"),
		d("stream.max_in_flight", "count"),
		d("taskgraph.tasks_per_op", "count"),
		d("taskgraph.affinity_pick_share", "ratio"),
		d("taskgraph.saved_mb_per_op", "MB"),
		h("taskgraph.host_us_per_task", "us"),
		h("taskgraph.placement_us_per_task", "us"),
		d("cache.hit_rate", "ratio"),
		d("cache.hit_mb_per_op", "MB"),
		d("cache.evictions_per_op", "count"),
		d("core.moved_mb_per_op", "MB"),
		d("sched.steals_per_op", "count"),
		d("sched.pops_per_op", "count"),
		d("sched.cpu_task_share", "ratio"),
		h("workload.gen_ms_per_op", "ms"),
		h("apps.verify_ms_per_op", "ms"),
		d("apps.computed_gflop_per_op", "GFLOP"),
		d("core.busy_share.io", "ratio"),
		d("core.busy_share.gpu", "ratio"),
		d("core.busy_share.cpu", "ratio"),
		d("core.busy_share.transfer", "ratio"),
		d("core.busy_share.runtime", "ratio"),
		d("core.critpath_share.io", "ratio"),
		d("core.critpath_share.gpu", "ratio"),
		d("core.critpath_share.idle", "ratio"),
		d("core.retries_per_op", "count"),
		d("core.faults_per_op", "count"),
		d("core.gave_up_per_op", "count"),
		d("fault.injected_per_op", "count"),
		h("obs.overhead_share", "ratio"),
		d("trace.events_per_op", "count"),
		d("trace.dropped", "count"),
		h("serve.host_us_per_job", "us"),
		d("serve.events_per_job", "count"),
		h("serve.alloc_kb_per_job", "KB"),
		d("serve.queue_wait_ms_p99.r4x", "ms"),
		d("serve.service_ms_p50.r4x", "ms"),
		d("serve.admit_share.r8x", "ratio"),
		d("serve.p99_ms.r1x", "ms"),
		d("serve.p99_ms.r4x", "ms"),
		d("serve.goodput_jps.r4x", "1/s"),
		d("serve.goodput_jps.r8x", "1/s"),
		d("serve.max_rate_jps", "1/s"),
		h("go.gc_cycles_per_op", "count"),
		h("go.gc_pause_ms_per_op", "ms"),
		h("go.mallocs_per_op", "count"),
	}
	for _, m := range cpuShareModules {
		defs = append(defs, h("cpu_share."+m, "ratio"))
	}
	return append(defs,
		h("bench.traced_ops_per_s", "1/s"),
		h("bench.span_overhead_share", "ratio"),
		h("bench.ref_ms", "ms"),
	)
}()

// result is one workload's measurement. E2E holds every end-to-end metric;
// Layer holds the per-layer metrics and is empty unless the run was traced.
type result struct {
	Workload  string
	Seed      int64
	Traced    bool
	Attempted int
	Failed    int
	E2E       map[string]float64
	Layer     map[string]float64
	// Samples counts the observations behind each end-to-end metric.
	Samples map[string]int
	// refMS is the run's median reference time and slowness its ratio to
	// refNominalMS; end-to-end host times are divided by slowness.
	refMS, slowness float64
	// Notes are extra lines for the human-readable table.
	Notes []string
}

func (r *result) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// metricValue is one metric in the machine-readable result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object printed as the last line of a run: the
// end-to-end metrics for an untraced run, the per-layer ones for a traced
// run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of an -out file: the result line plus its identity.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	resultLine
}

func (r *result) line() resultLine {
	defs, vals := endToEnd, r.E2E
	if r.Traced {
		defs, vals = perLayer, r.Layer
	}
	l := resultLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		if v, ok := vals[d.name]; ok {
			l.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	return l
}

func (r *result) record() record {
	return record{Workload: r.Workload, Seed: r.Seed, Traced: r.Traced, resultLine: r.line()}
}

// writeTable prints the human-readable report of one workload.
func (r *result) writeTable(w io.Writer) {
	fmt.Fprintf(w, "  %-34s %16s  %-6s %7s\n", "metric", "value", "unit", "n")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-34s %16.6g  %-6s %7d\n", d.name, r.E2E[d.name], d.unit, r.Samples[d.name])
	}
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "  %-34s %16.6g  %-6s %7d\n", "failed_op_ratio", ratio, "ratio", r.Attempted)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	if !r.Traced {
		return
	}
	fmt.Fprintf(w, "  per-layer (traced run):\n")
	for _, d := range perLayer {
		v, ok := r.Layer[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-34s %16.6g  %s\n", d.name, v, d.unit)
	}
}

// percentile returns the nearest-rank q-quantile of xs (sorted in place).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// mean returns the arithmetic mean of xs, or 0 when xs is empty.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// quartiles returns the first quartile, median and third quartile of xs with
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// definition the benchmark's spread rule is stated in.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	ld, m := len(d), len(d)+1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		out[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}

// writeJSONLine writes v as one line of JSON.
func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// pkgOfFunc returns the cpu_share bucket of a profiled function name such as
// "repro/internal/sim.(*Engine).dispatch" or "runtime.mallocgc".
func pkgOfFunc(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // type arguments may hold paths
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "other"
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "go-runtime"
	case strings.HasPrefix(pkg, "repro/internal/apps/"):
		return "apps-" + strings.TrimPrefix(pkg, "repro/internal/apps/")
	case strings.HasPrefix(pkg, "repro/internal/"):
		mod := strings.TrimPrefix(pkg, "repro/internal/")
		for _, m := range cpuShareModules {
			if m == mod {
				return m
			}
		}
	}
	return "other"
}
