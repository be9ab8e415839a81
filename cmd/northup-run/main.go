// Command northup-run executes one of the paper's applications on a chosen
// topology and reports timing and the execution breakdown.
//
// Usage:
//
//	northup-run -app gemm|hotspot|spmv [-preset apu|apu-hdd|discrete|nvm|inmemory]
//	            [-spec file.json] [-storage-mib M] [-dram-mib M]
//	            [-n N] [-chunk D] [-iters K] [-nnz Z] [-phantom] [-steal]
//	            [-streamed] [-subchunks S] [-affinity on|off]
//	            [-faults seed=N,rate=P,...] [-retries K]
//	            [-cache] [-cache-mib M] [-cache-share F] [-prefetch]
//	            [-trace-out trace.json] [-trace-events N] [-metrics]
//	            [-metrics-out metrics.json] [-metrics-prom metrics.prom]
//	            [-sample-tick-ms T] [-stats]
//
// With -trace-out the run records every span, instant and counter on the
// virtual timeline and writes a Chrome trace_event file loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing, with one process per tree node and
// one thread per lane. -metrics prints the derived per-node utilization
// table and the critical path attributing the makespan; either flag enables
// recording. Identical runs produce byte-identical trace files.
//
// With -metrics-out or -metrics-prom the runtime additionally carries the
// continuous metrics registry — per-category busy-time counters and span
// histograms, moved bytes, cache/resilience/fault counters, queue and
// bandwidth gauges — and writes it after the run as JSON or Prometheus text.
// -sample-tick-ms enables the virtual-time sampler, adding deterministic
// gauge time series to the JSON export. Identical runs produce byte-identical
// metric files.
//
// With -cache the runtime interposes a reuse-aware staging cache on the
// MoveDataDownCached path: repeated reads of the same source extent are
// served from resident buffers (LRU-evicted, pinnable), the breakdown gains
// a cache line, and the report ends with per-node pool occupancy.
//
// With -faults the run injects deterministic transfer/allocation faults and
// outages (see northup.ParseFaults for the full syntax); the runtime absorbs
// them with retries and failover, and the report gains resilience counters.
// A GPU outage needs -app hotspot -steal, the one scheduler that fails GPU
// work over; any other run refuses it. An outage naming a node the tree
// lacks, or the GPU of a node that has none, is refused once the tree is
// built.
//
// With -affinity on the gemm and spmv runs route through the extent-declared
// task-graph scheduler with residency-aware placement: shards become tasks
// that declare the byte ranges they read and write, and each ready task goes
// to the worker whose estimated compute-plus-move cost is lowest, with
// cache-resident input bytes scoring zero. The report gains a scheduler line
// (placements, affinity picks, bytes served from residency). The default
// (off) runs the recursive schedule of the same problem. A gemm matrix that
// fits in one shard is refused: its one-task graph leaves placement nothing
// to choose, so pass a smaller -chunk.
//
// With -streamed the gemm and hotspot staging moves route through the
// streaming transfer engine: each multi-hop move is split into sub-chunks
// that pipeline through the tree's intermediate nodes on bounded
// double-buffered rings, overlapping every hop. -subchunks fixes the split
// (0 lets the adaptive sizer choose per move), and the report gains a
// streaming summary line.
//
// -iters counts hotspot's stencil steps per pass (default 8) and spmv's
// power-iteration passes (default 1, a single multiply; each further pass
// normalizes x and streams the matrix from storage again, so -cache can
// reuse it).
//
// Every option either changes the run or is refused: an option the chosen
// app and schedule would ignore (say -chunk with -app spmv, -streamed with
// -steal, -prefetch without -cache) exits 1 with a message naming it. The
// flagRules table lists which runs honour which flags.
//
// Functional mode (the default) computes and verifies real results, so keep
// -n modest; -phantom charges identical virtual time with no payloads and
// handles paper-scale inputs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"

	"repro/northup"
)

// options is the parsed command line.
type options struct {
	app, preset, spec        string
	n, chunk, iters, nnz     int
	steal, phantom, streamed bool
	affinity                 string
	subchunks                int
	storageMiB, dramMiB      int64
	faults                   string
	retries                  int
	cache, prefetch          bool
	cacheMiB                 int64
	cacheShare               float64
	traceOut                 string
	traceEvents              int
	metrics                  bool
	metricsOut, metricsProm  string
	sampleTickMS             int64
	stats                    bool

	// set holds each flag given on the command line, as it reads in a
	// refusal: "-chunk 128", or "-streamed" for a boolean.
	set map[string]string
	// plan is the parsed -faults spec, nil without one.
	plan *northup.FaultPlan
}

// parseFlags reads the command line into options; it does not validate
// combinations (see validate).
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("northup-run", flag.ContinueOnError)
	fs.StringVar(&o.app, "app", "gemm", "application: gemm, hotspot, spmv")
	fs.StringVar(&o.preset, "preset", "apu", "topology: apu, apu-hdd, discrete, nvm, inmemory")
	fs.StringVar(&o.spec, "spec", "", "JSON topology spec file (overrides -preset)")
	fs.IntVar(&o.n, "n", 1024, "problem dimension (matrix/grid dim, or sparse rows)")
	fs.IntVar(&o.chunk, "chunk", 0, "chunk/shard dimension, gemm and hotspot (0 = derive from capacity)")
	fs.IntVar(&o.iters, "iters", 0,
		"iterations: hotspot stencil steps per pass, spmv power-iteration passes (0 = app default: hotspot 8, spmv 1)")
	fs.BoolVar(&o.steal, "steal", false,
		"hotspot: queue-based CPU+GPU work stealing at the leaf (enables GPU-outage failover)")
	fs.IntVar(&o.nnz, "nnz", 16, "average non-zeros per row (spmv)")
	fs.BoolVar(&o.phantom, "phantom", false, "timing-only mode (no payloads; paper-scale capable)")
	fs.BoolVar(&o.streamed, "streamed", false, "route gemm/hotspot staging moves through the streaming transfer engine")
	fs.StringVar(&o.affinity, "affinity", "off",
		"gemm/spmv task-graph scheduling: off (recursive schedule) or on (extent-declared tasks, residency-aware placement)")
	fs.IntVar(&o.subchunks, "subchunks", 0, "streamed sub-chunks per move (0 = adaptive sizer)")
	fs.Int64Var(&o.storageMiB, "storage-mib", 1024, "preset storage capacity")
	fs.Int64Var(&o.dramMiB, "dram-mib", 16, "preset staging capacity")
	fs.StringVar(&o.faults, "faults", "",
		"fault injection: seed=N,rate=P[,delay-rate=P][,delay-us=D][,alloc-rate=P][,offline=NODE[/gpu]:FROM_MS:UNTIL_MS]")
	fs.IntVar(&o.retries, "retries", 0, "max retries per operation under -faults (0 = default policy)")
	fs.BoolVar(&o.cache, "cache", false, "enable the reuse-aware staging cache on memory nodes")
	fs.Int64Var(&o.cacheMiB, "cache-mib", 0, "cache capacity per node in MiB (0 = -cache-share of the node)")
	fs.Float64Var(&o.cacheShare, "cache-share", 0, "cache capacity as a fraction of each node (0 = default 0.5)")
	fs.BoolVar(&o.prefetch, "prefetch", false, "enable lookahead prefetch into the staging cache")
	fs.StringVar(&o.traceOut, "trace-out", "", "write a Chrome/Perfetto trace_event JSON file")
	fs.IntVar(&o.traceEvents, "trace-events", 0, "trace ring-buffer capacity in events (0 = default)")
	fs.BoolVar(&o.metrics, "metrics", false, "print per-node utilization metrics and the critical path")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write the continuous metrics registry as JSON")
	fs.StringVar(&o.metricsProm, "metrics-prom", "", "write the continuous metrics registry as Prometheus text")
	fs.Int64Var(&o.sampleTickMS, "sample-tick-ms", 0, "sample gauges every T virtual milliseconds into the JSON export (0 = off)")
	fs.BoolVar(&o.stats, "stats", false, "print simulation-engine dispatch stats (events, inline callbacks, procs, events/sec)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.set = make(map[string]string)
	fs.Visit(func(f *flag.Flag) {
		if b, ok := f.Value.(interface{ IsBoolFlag() bool }); ok && b.IsBoolFlag() {
			o.set[f.Name] = "-" + f.Name
		} else {
			o.set[f.Name] = "-" + f.Name + " " + f.Value.String()
		}
	})
	return o, nil
}

// Schedules a run can take, chosen by -app, -affinity, -steal and -preset.
const (
	schedRecursive = "recursive" // the paper's divide-and-conquer schedule
	schedTasks     = "tasks"     // gemm/spmv extent-declared task graph
	schedSteal     = "steal"     // hotspot CPU+GPU work stealing
	schedInMemory  = "inmemory"  // the in-memory baseline
)

// schedule names the path the run takes for its app.
func (o *options) schedule() string {
	switch {
	case o.affinity == "on" && o.app != "hotspot":
		return schedTasks
	case o.app == "hotspot" && o.steal:
		return schedSteal
	case o.preset == "inmemory" && o.spec == "":
		return schedInMemory
	}
	return schedRecursive
}

// only builds a flag rule's check: nil when honoured(o), else why.
func only(honoured func(o *options) bool, why string) func(o *options) error {
	return func(o *options) error {
		if honoured(o) {
			return nil
		}
		return errors.New(why)
	}
}

// streams reports whether the run's schedule routes staging moves through
// the streaming engine when asked: gemm and hotspot on the recursive path.
func streams(o *options) bool {
	return o.app != "spmv" && o.schedule() == schedRecursive
}

// flagRules is the validation table: each flag that only some runs read,
// with the check that refuses it on a run that would ignore it. Each app
// and schedule honours the flags whose check passes for it.
var flagRules = []struct {
	flag  string
	check func(o *options) error
}{
	{"chunk", only(func(o *options) bool { return o.app != "spmv" && o.schedule() != schedInMemory },
		"only gemm and hotspot read it, not spmv (it shards by non-zeros) or -preset inmemory")},
	{"iters", only(func(o *options) bool {
		return o.app == "hotspot" || o.app == "spmv" && o.schedule() != schedInMemory
	}, "only hotspot and spmv read it, and spmv not on -preset inmemory")},
	{"nnz", only(func(o *options) bool { return o.app == "spmv" }, "only -app spmv reads it")},
	{"steal", only(func(o *options) bool { return o.app == "hotspot" }, "only -app hotspot reads it")},
	{"affinity", only(func(o *options) bool { return o.affinity == "off" || o.app != "hotspot" },
		"supports gemm and spmv (hotspot has the -steal and profiled paths)")},
	{"streamed", only(streams,
		"only the recursive gemm and hotspot schedules stream (not spmv, -affinity on, -steal or -preset inmemory)")},
	{"subchunks", only(func(o *options) bool { return o.streamed && streams(o) },
		"needs -streamed on a recursive gemm or hotspot run")},
	{"faults", func(o *options) error { return checkOutages(o.plan, o.app, o.steal) }},
	{"retries", only(func(o *options) bool { return o.faults != "" }, "needs -faults; only injected faults are retried")},
	{"cache-mib", only(func(o *options) bool { return o.cache }, "needs -cache, whose pool it sizes")},
	{"cache-share", only(func(o *options) bool { return o.cache }, "needs -cache, whose pool it sizes")},
	{"prefetch", only(func(o *options) bool { return o.cache }, "needs -cache, which it fills ahead of demand")},
	{"trace-events", only(func(o *options) bool { return o.traceOut != "" || o.metrics },
		"needs -trace-out or -metrics, whose trace ring it sizes")},
	{"sample-tick-ms", only(func(o *options) bool { return o.metricsOut != "" || o.metricsProm != "" },
		"needs -metrics-out or -metrics-prom, whose registry it samples")},
	{"storage-mib", only(func(o *options) bool { return o.spec == "" }, "it sizes a -preset topology; -spec sets its own")},
	{"dram-mib", only(func(o *options) bool { return o.spec == "" && o.preset != "inmemory" },
		"it sizes a -preset topology's staging level; -spec sets its own and -preset inmemory has none")},
}

// maxCacheMiB is the largest -cache-mib whose byte count fits in int64.
const maxCacheMiB = math.MaxInt64 >> 20

// validate refuses values no run accepts and every flag the run would
// silently ignore, naming the flag.
func (o *options) validate() error {
	if o.affinity != "on" && o.affinity != "off" {
		return fmt.Errorf("-affinity %q: want on or off", o.affinity)
	}
	for _, c := range []struct {
		flag, want string
		ok         bool
	}{
		{"chunk", "want 0 (derive it from the staging capacity) or more", o.chunk >= 0},
		{"iters", "want 0 (the app's default) or more", o.iters >= 0},
		{"nnz", "want at least 1 non-zero per row", o.nnz >= 1},
		{"cache-share", "want a fraction of the node in [0, 1] (0 = default 0.5)",
			o.cacheShare >= 0 && o.cacheShare <= 1},
		{"storage-mib", "want at least 1 MiB", o.storageMiB >= 1},
		{"dram-mib", "want at least 1 MiB", o.dramMiB >= 1},
		{"cache-mib", fmt.Sprintf("want 0 (-cache-share of the node) to %d, the most MiB an int64 byte count holds",
			maxCacheMiB), o.cacheMiB >= 0 && o.cacheMiB <= maxCacheMiB},
		{"subchunks", "want 0 (the adaptive sizer) or more", o.subchunks >= 0},
		{"retries", "want 0 (the default policy) or more", o.retries >= 0},
		{"trace-events", "want 0 (the default ring) or more", o.traceEvents >= 0},
		{"sample-tick-ms", "want 0 (off) or more", o.sampleTickMS >= 0},
	} {
		if !c.ok {
			return fmt.Errorf("%s: %s", o.set[c.flag], c.want)
		}
	}
	if o.faults != "" {
		plan, err := northup.ParseFaults(o.faults)
		if err != nil {
			return err
		}
		o.plan = plan
	}
	for _, r := range flagRules {
		if arg, ok := o.set[r.flag]; ok {
			if err := r.check(o); err != nil {
				return fmt.Errorf("%s: %w", arg, err)
			}
		}
	}
	return nil
}

// appIters resolves -iters to the app's default when unset: 8 stencil steps
// per hotspot pass, one spmv pass.
func (o *options) appIters() int {
	switch {
	case o.iters > 0:
		return o.iters
	case o.app == "hotspot":
		return 8
	}
	return 1
}

// spmvConfig is the SpMV problem the flags describe.
func (o *options) spmvConfig() northup.SpMVConfig {
	return northup.SpMVConfig{N: o.n, AvgNNZ: o.nnz, Kind: northup.SparseUniform, Seed: 1, Iters: o.appIters()}
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	if err := o.validate(); err != nil {
		fatal(err)
	}
	affinityOn := o.schedule() == schedTasks
	iters := o.appIters()

	e := northup.NewEngine()
	tree, err := buildTree(e, o.preset, o.spec, o.storageMiB, o.dramMiB)
	if err != nil {
		fatal(err)
	}
	opts := northup.DefaultOptions()
	opts.Phantom = o.phantom
	if o.plan != nil {
		if opts.Faults, err = o.plan.Inject(e, tree); err != nil {
			fatal(err)
		}
	}
	if o.retries > 0 {
		p := northup.DefaultRetryPolicy()
		p.MaxRetries = o.retries
		opts.Retry = p
	}
	if o.cache {
		opts.Cache = northup.CacheOptions{
			Enabled:       true,
			CapacityBytes: o.cacheMiB << 20,
			CapacityShare: o.cacheShare,
			Prefetch:      o.prefetch,
		}
	}
	var rec *northup.TraceRecorder
	if o.traceOut != "" || o.metrics {
		rec = northup.NewTraceRecorder(northup.TraceOptions{MaxEvents: o.traceEvents})
		opts.Trace = rec
	}
	var reg *northup.MetricsRegistry
	var sampler *northup.MetricsSampler
	if o.metricsOut != "" || o.metricsProm != "" {
		reg = northup.NewMetricsRegistry()
		opts.Metrics = reg
		if o.sampleTickMS > 0 {
			sampler = northup.NewMetricsSampler(reg,
				northup.SamplerOptions{Tick: northup.Time(o.sampleTickMS) * northup.Millisecond})
			opts.Sampler = sampler
		}
	}
	rt := northup.NewRuntime(e, tree, opts)

	fmt.Printf("topology:\n%s\n", tree)

	n := o.n
	var stats northup.RunStats
	switch o.app {
	case "gemm":
		var res *northup.GEMMResult
		if affinityOn {
			var ts *northup.TaskStats
			res, ts, err = northup.GEMMTasks(rt, northup.GEMMConfig{N: n, Seed: 1, ShardDim: o.chunk},
				northup.TaskOptions{Affinity: true})
			if err == nil {
				err = checkPlacement(ts, res.ShardDim)
			}
			if err != nil {
				fatal(err)
			}
			stats = res.Stats
			fmt.Printf("gemm: N=%d shard=%d (task graph)\n", n, res.ShardDim)
			printTaskStats(ts)
			break
		}
		res, err = northup.GEMMNorthup(rt, northup.GEMMConfig{N: n, Seed: 1, ShardDim: o.chunk,
			Streamed: o.streamed, StreamOpts: northup.StreamOptions{SubChunks: o.subchunks}})
		if err != nil {
			fatal(err)
		}
		stats = res.Stats
		fmt.Printf("gemm: N=%d shard=%d\n", n, res.ShardDim)
	case "hotspot":
		if o.steal {
			scfg := northup.StealConfig{M: n, ChunkDim: o.chunk, Seed: 1,
				Iters: iters, Mode: northup.CPUGPU}
			res, err := northup.HotSpotSteal(rt, scfg)
			if err != nil {
				fatal(err)
			}
			stats = res.Stats
			fmt.Printf("hotspot: M=%d chunk=%d iters=%d pops=%d steals=%d gpu-tasks=%d cpu-tasks=%d failovers=%d\n",
				n, res.ChunkDim, iters, res.Pops, res.Steals, res.TasksByGPU, res.TasksByCPU, res.Failovers)
			break
		}
		res, err := northup.HotSpotNorthup(rt, northup.HotSpotConfig{N: n, Seed: 1, ChunkDim: o.chunk,
			Iters: iters, Streamed: o.streamed, StreamOpts: northup.StreamOptions{SubChunks: o.subchunks}})
		if err != nil {
			fatal(err)
		}
		stats = res.Stats
		fmt.Printf("hotspot: N=%d chunk=%d iters=%d\n", n, res.ChunkDim, iters)
	case "spmv":
		cfg := o.spmvConfig()
		// One pass prints as before; power iterations add their count.
		passes := ""
		if iters > 1 {
			passes = fmt.Sprintf(" iters=%d", iters)
		}
		var res *northup.SpMVResult
		if affinityOn {
			var ts *northup.TaskStats
			res, ts, err = northup.SpMVTasks(rt, cfg, northup.TaskOptions{Affinity: true})
			if err != nil {
				fatal(err)
			}
			stats = res.Stats
			fmt.Printf("spmv: rows=%d nnz/row~%d%s (task graph)\n", n, o.nnz, passes)
			printTaskStats(ts)
			break
		}
		res, err = northup.SpMVNorthup(rt, cfg)
		if err != nil {
			fatal(err)
		}
		stats = res.Stats
		fmt.Printf("spmv: rows=%d nnz/row~%d shards=%d splits=%d%s\n",
			n, o.nnz, res.Shards, res.Splits, passes)
	default:
		fatal(fmt.Errorf("unknown app %q", o.app))
	}

	fmt.Printf("\nsimulated execution: %v\n", stats.Elapsed)
	fmt.Print(stats.Breakdown.Report())
	if o.streamed {
		ss := rt.StreamStats()
		fmt.Printf("streaming: %d stream(s), %d sub-chunks, %d hop moves, %d bytes, peak in-flight %d\n",
			ss.Streams, ss.SubChunks, ss.HopMoves, ss.Bytes, ss.MaxInFlight)
	}
	if o.cache {
		fmt.Print(rt.CacheReport())
	}
	if o.faults != "" {
		fmt.Print(rt.ResilienceReport())
	}
	if rec != nil {
		events := rec.Events()
		if n := rec.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "northup-run: trace ring overflowed, oldest %d events dropped (raise -trace-events)\n", n)
		}
		if o.traceOut != "" {
			if err := writeTrace(o.traceOut, events, tree, rec.Dropped()); err != nil {
				fatal(err)
			}
			fmt.Printf("\ntrace: %d events -> %s\n", len(events), o.traceOut)
		}
		if o.metrics {
			sum := northup.SummarizeTrace(events, northup.TraceSummaryOptions{
				NominalBW: northup.NominalBandwidth(tree)})
			fmt.Printf("\n%s", sum.Report())
			fmt.Printf("\n%s", northup.TraceCriticalPath(events, northup.TraceSummaryOptions{}).Report(8))
		}
	}
	if reg != nil {
		if o.metricsOut != "" {
			if err := writeFileWith(o.metricsOut, func(f *os.File) error {
				return northup.WriteMetricsJSON(f, reg, sampler)
			}); err != nil {
				fatal(err)
			}
			fmt.Printf("metrics: %d metric(s) -> %s\n", reg.Len(), o.metricsOut)
		}
		if o.metricsProm != "" {
			if err := writeFileWith(o.metricsProm, func(f *os.File) error {
				return northup.WriteMetricsPrometheus(f, reg)
			}); err != nil {
				fatal(err)
			}
			fmt.Printf("metrics: %d metric(s) -> %s\n", reg.Len(), o.metricsProm)
		}
	}
	if o.stats {
		st := e.Stats()
		fmt.Printf("engine: %d events (%d inline callbacks), %d procs, %.0f events/sec\n",
			st.Events, st.Callbacks, st.Procs, st.EventsPerSec())
	}
}

// checkOutages refuses a processor outage the run would ignore: only the
// hotspot -steal scheduler consults GPU outages (failing work over to the
// CPU); every other path reads whole-node outages alone.
func checkOutages(plan *northup.FaultPlan, app string, steal bool) error {
	if plan == nil || app == "hotspot" && steal {
		return nil
	}
	for _, o := range plan.Outages {
		if o.Class != "" {
			return fmt.Errorf("only -app hotspot -steal honours processor outages (offline=%d/%s); add -steal or take the whole node offline", o.Node, o.Class)
		}
	}
	return nil
}

// checkPlacement refuses a gemm affinity run whose whole matrix fit one
// shard: its task graph is a single task, so placement has nothing to
// choose between and -affinity on would change nothing.
func checkPlacement(ts *northup.TaskStats, shardDim int) error {
	if ts.Tasks > 1 {
		return nil
	}
	return fmt.Errorf("-affinity on: the matrix fits in %d shard of dimension %d, a one-task graph that leaves placement nothing to choose; split it with a smaller -chunk",
		ts.Tasks, shardDim)
}

// printTaskStats reports one task-graph run's scheduling decisions.
func printTaskStats(ts *northup.TaskStats) {
	fmt.Printf("scheduler: %d tasks, %d affinity picks, %d pops, %d steals, %d bytes served from residency\n",
		ts.Tasks, ts.AffinityPicks, ts.Pops, ts.Steals, ts.SavedBytes)
}

// writeFileWith creates path and streams render into it.
func writeFileWith(path string, render func(f *os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace exports the recorded events as Chrome trace_event JSON. The
// drop count travels in the file's metadata, so northup-trace -validate
// rejects an incomplete trace instead of analysing it silently.
func writeTrace(path string, events []northup.TraceEvent, tree *northup.Tree, dropped int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := northup.WriteChromeTrace(f, events,
		northup.TraceExportOptions{NodeLabel: northup.TraceNodeLabeler(tree),
			DroppedEvents: dropped}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func buildTree(e *northup.Engine, preset, specPath string, storageMiB, dramMiB int64) (*northup.Tree, error) {
	if specPath != "" {
		data, err := os.ReadFile(specPath)
		if err != nil {
			return nil, err
		}
		spec, err := northup.ParseSpec(data)
		if err != nil {
			return nil, err
		}
		return northup.BuildSpec(e, spec)
	}
	switch preset {
	case "apu":
		return northup.APU(e, northup.APUConfig{Storage: northup.SSD,
			StorageMiB: storageMiB, DRAMMiB: dramMiB, WithCPU: true}), nil
	case "apu-hdd":
		return northup.APU(e, northup.APUConfig{Storage: northup.HDD,
			StorageMiB: storageMiB, DRAMMiB: dramMiB, WithCPU: true}), nil
	case "discrete":
		return northup.Discrete(e, northup.DiscreteConfig{Storage: northup.SSD,
			StorageMiB: storageMiB, DRAMMiB: dramMiB * 2, GPUMemMiB: dramMiB}), nil
	case "nvm":
		return northup.APUWithNVM(e, northup.NVMConfig{Storage: northup.HDD,
			StorageMiB: storageMiB, NVMMiB: dramMiB * 8, DRAMMiB: dramMiB, WithCPU: true}), nil
	case "inmemory":
		return northup.InMemory(e, storageMiB), nil
	default:
		return nil, fmt.Errorf("unknown preset %q", preset)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "northup-run:", err)
	os.Exit(1)
}
