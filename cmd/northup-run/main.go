// Command northup-run executes one of the paper's applications on a chosen
// topology and reports timing and the execution breakdown.
//
// Usage:
//
//	northup-run -app gemm|hotspot|spmv [-preset apu|apu-hdd|discrete|nvm|inmemory]
//	            [-spec file.json] [-n N] [-chunk D] [-iters K] [-phantom]
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
// work over; any other run refuses it.
//
// With -affinity on the gemm and spmv runs route through the extent-declared
// task-graph scheduler with residency-aware placement: shards become tasks
// that declare the byte ranges they read and write, and each ready task goes
// to the worker whose estimated compute-plus-move cost is lowest, with
// cache-resident input bytes scoring zero. The report gains a scheduler line
// (placements, affinity picks, bytes served from residency). The default
// (off) runs the recursive schedule of the same problem.
//
// With -streamed the gemm and hotspot staging moves route through the
// streaming transfer engine: each multi-hop move is split into sub-chunks
// that pipeline through the tree's intermediate nodes on bounded
// double-buffered rings, overlapping every hop. -subchunks fixes the split
// (0 lets the adaptive sizer choose per move), and the report gains a
// streaming summary line.
//
// Functional mode (the default) computes and verifies real results, so keep
// -n modest; -phantom charges identical virtual time with no payloads and
// handles paper-scale inputs.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/northup"
)

func main() {
	app := flag.String("app", "gemm", "application: gemm, hotspot, spmv")
	preset := flag.String("preset", "apu", "topology: apu, apu-hdd, discrete, nvm, inmemory")
	specPath := flag.String("spec", "", "JSON topology spec file (overrides -preset)")
	n := flag.Int("n", 1024, "problem dimension (matrix/grid dim, or sparse rows)")
	chunk := flag.Int("chunk", 0, "chunk/shard dimension (0 = derive from capacity)")
	iters := flag.Int("iters", 8, "stencil iterations per pass (hotspot)")
	steal := flag.Bool("steal", false,
		"hotspot: queue-based CPU+GPU work stealing at the leaf (enables GPU-outage failover)")
	avgNNZ := flag.Int("nnz", 16, "average non-zeros per row (spmv)")
	phantom := flag.Bool("phantom", false, "timing-only mode (no payloads; paper-scale capable)")
	streamed := flag.Bool("streamed", false, "route gemm/hotspot staging moves through the streaming transfer engine")
	affinity := flag.String("affinity", "off",
		"gemm/spmv task-graph scheduling: off (recursive schedule) or on (extent-declared tasks, residency-aware placement)")
	subchunks := flag.Int("subchunks", 0, "streamed sub-chunks per move (0 = adaptive sizer)")
	storageMiB := flag.Int64("storage-mib", 1024, "preset storage capacity")
	dramMiB := flag.Int64("dram-mib", 16, "preset staging capacity")
	faults := flag.String("faults", "",
		"fault injection: seed=N,rate=P[,delay-rate=P][,delay-us=D][,alloc-rate=P][,offline=NODE[/gpu]:FROM_MS:UNTIL_MS]")
	retries := flag.Int("retries", 0, "max retries per operation (0 = default policy)")
	cacheOn := flag.Bool("cache", false, "enable the reuse-aware staging cache on memory nodes")
	cacheMiB := flag.Int64("cache-mib", 0, "cache capacity per node in MiB (0 = -cache-share of the node)")
	cacheShare := flag.Float64("cache-share", 0, "cache capacity as a fraction of each node (0 = default 0.5)")
	prefetch := flag.Bool("prefetch", false, "enable lookahead prefetch into the staging cache")
	traceOut := flag.String("trace-out", "", "write a Chrome/Perfetto trace_event JSON file")
	traceEvents := flag.Int("trace-events", 0, "trace ring-buffer capacity in events (0 = default)")
	metrics := flag.Bool("metrics", false, "print per-node utilization metrics and the critical path")
	metricsOut := flag.String("metrics-out", "", "write the continuous metrics registry as JSON")
	metricsProm := flag.String("metrics-prom", "", "write the continuous metrics registry as Prometheus text")
	sampleTickMS := flag.Int64("sample-tick-ms", 0, "sample gauges every T virtual milliseconds into the JSON export (0 = off)")
	engStats := flag.Bool("stats", false, "print simulation-engine dispatch stats (events, inline callbacks, procs, events/sec)")
	flag.Parse()

	if *affinity != "on" && *affinity != "off" {
		fatal(fmt.Errorf("-affinity %q: want on or off", *affinity))
	}
	affinityOn := *affinity == "on"
	if affinityOn && *app == "hotspot" {
		fatal(fmt.Errorf("-affinity on supports gemm and spmv (hotspot has the -steal and profiled paths)"))
	}

	e := northup.NewEngine()
	tree, err := buildTree(e, *preset, *specPath, *storageMiB, *dramMiB)
	if err != nil {
		fatal(err)
	}
	opts := northup.DefaultOptions()
	opts.Phantom = *phantom
	if *faults != "" {
		plan, err := northup.ParseFaults(*faults)
		if err != nil {
			fatal(err)
		}
		if err := checkOutages(plan, *app, *steal); err != nil {
			fatal(err)
		}
		opts.Faults = plan.Inject(e)
	}
	if *retries > 0 {
		p := northup.DefaultRetryPolicy()
		p.MaxRetries = *retries
		opts.Retry = p
	}
	if *cacheOn {
		opts.Cache = northup.CacheOptions{
			Enabled:       true,
			CapacityBytes: *cacheMiB << 20,
			CapacityShare: *cacheShare,
			Prefetch:      *prefetch,
		}
	}
	var rec *northup.TraceRecorder
	if *traceOut != "" || *metrics {
		rec = northup.NewTraceRecorder(northup.TraceOptions{MaxEvents: *traceEvents})
		opts.Trace = rec
	}
	var reg *northup.MetricsRegistry
	var sampler *northup.MetricsSampler
	if *metricsOut != "" || *metricsProm != "" {
		reg = northup.NewMetricsRegistry()
		opts.Metrics = reg
		if *sampleTickMS > 0 {
			sampler = northup.NewMetricsSampler(reg,
				northup.SamplerOptions{Tick: northup.Time(*sampleTickMS) * northup.Millisecond})
			opts.Sampler = sampler
		}
	}
	rt := northup.NewRuntime(e, tree, opts)

	fmt.Printf("topology:\n%s\n", tree)

	var stats northup.RunStats
	switch *app {
	case "gemm":
		var res *northup.GEMMResult
		if affinityOn {
			var ts *northup.TaskStats
			res, ts, err = northup.GEMMTasks(rt, northup.GEMMConfig{N: *n, Seed: 1, ShardDim: *chunk},
				northup.TaskOptions{Affinity: true})
			if err != nil {
				fatal(err)
			}
			stats = res.Stats
			fmt.Printf("gemm: N=%d shard=%d (task graph)\n", *n, res.ShardDim)
			printTaskStats(ts)
			break
		}
		if *preset == "inmemory" && *specPath == "" {
			res, err = northup.GEMMInMemory(rt, northup.GEMMConfig{N: *n, Seed: 1})
		} else {
			res, err = northup.GEMMNorthup(rt, northup.GEMMConfig{N: *n, Seed: 1, ShardDim: *chunk,
				Streamed: *streamed, StreamOpts: northup.StreamOptions{SubChunks: *subchunks}})
		}
		if err != nil {
			fatal(err)
		}
		stats = res.Stats
		fmt.Printf("gemm: N=%d shard=%d\n", *n, res.ShardDim)
	case "hotspot":
		if *steal {
			chunkDim := *chunk
			if chunkDim <= 0 {
				chunkDim = *n
			}
			scfg := northup.StealConfig{M: *n, ChunkDim: chunkDim, Seed: 1,
				Iters: *iters, Mode: northup.CPUGPU}
			res, err := northup.HotSpotSteal(rt, scfg)
			if err != nil {
				fatal(err)
			}
			stats = res.Stats
			fmt.Printf("hotspot: M=%d chunk=%d iters=%d pops=%d steals=%d gpu-tasks=%d cpu-tasks=%d failovers=%d\n",
				*n, chunkDim, *iters, res.Pops, res.Steals, res.TasksByGPU, res.TasksByCPU, res.Failovers)
			break
		}
		cfg := northup.HotSpotConfig{N: *n, Seed: 1, ChunkDim: *chunk, Iters: *iters,
			Streamed: *streamed, StreamOpts: northup.StreamOptions{SubChunks: *subchunks}}
		var res *northup.HotSpotResult
		if *preset == "inmemory" && *specPath == "" {
			res, err = northup.HotSpotInMemory(rt, cfg)
		} else {
			res, err = northup.HotSpotNorthup(rt, cfg)
		}
		if err != nil {
			fatal(err)
		}
		stats = res.Stats
		fmt.Printf("hotspot: N=%d chunk=%d iters=%d\n", *n, res.ChunkDim, *iters)
	case "spmv":
		cfg := northup.SpMVConfig{N: *n, AvgNNZ: *avgNNZ, Kind: northup.SparseUniform, Seed: 1}
		var res *northup.SpMVResult
		if affinityOn {
			var ts *northup.TaskStats
			res, ts, err = northup.SpMVTasks(rt, cfg, northup.TaskOptions{Affinity: true})
			if err != nil {
				fatal(err)
			}
			stats = res.Stats
			fmt.Printf("spmv: rows=%d nnz/row~%d (task graph)\n", *n, *avgNNZ)
			printTaskStats(ts)
			break
		}
		if *preset == "inmemory" && *specPath == "" {
			res, err = northup.SpMVInMemory(rt, cfg)
		} else {
			res, err = northup.SpMVNorthup(rt, cfg)
		}
		if err != nil {
			fatal(err)
		}
		stats = res.Stats
		fmt.Printf("spmv: rows=%d nnz/row~%d shards=%d splits=%d\n",
			*n, *avgNNZ, res.Shards, res.Splits)
	default:
		fatal(fmt.Errorf("unknown app %q", *app))
	}

	fmt.Printf("\nsimulated execution: %v\n", stats.Elapsed)
	fmt.Print(stats.Breakdown.Report())
	if *streamed {
		ss := rt.StreamStats()
		fmt.Printf("streaming: %d stream(s), %d sub-chunks, %d hop moves, %d bytes, peak in-flight %d\n",
			ss.Streams, ss.SubChunks, ss.HopMoves, ss.Bytes, ss.MaxInFlight)
	}
	if *cacheOn {
		fmt.Print(rt.CacheReport())
	}
	if *faults != "" {
		fmt.Print(rt.ResilienceReport())
	}
	if rec != nil {
		events := rec.Events()
		if n := rec.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "northup-run: trace ring overflowed, oldest %d events dropped (raise -trace-events)\n", n)
		}
		if *traceOut != "" {
			if err := writeTrace(*traceOut, events, tree, rec.Dropped()); err != nil {
				fatal(err)
			}
			fmt.Printf("\ntrace: %d events -> %s\n", len(events), *traceOut)
		}
		if *metrics {
			sum := northup.SummarizeTrace(events, northup.TraceSummaryOptions{
				NominalBW: northup.NominalBandwidth(tree)})
			fmt.Printf("\n%s", sum.Report())
			fmt.Printf("\n%s", northup.TraceCriticalPath(events, northup.TraceSummaryOptions{}).Report(8))
		}
	}
	if reg != nil {
		if *metricsOut != "" {
			if err := writeFileWith(*metricsOut, func(f *os.File) error {
				return northup.WriteMetricsJSON(f, reg, sampler)
			}); err != nil {
				fatal(err)
			}
			fmt.Printf("metrics: %d metric(s) -> %s\n", reg.Len(), *metricsOut)
		}
		if *metricsProm != "" {
			if err := writeFileWith(*metricsProm, func(f *os.File) error {
				return northup.WriteMetricsPrometheus(f, reg)
			}); err != nil {
				fatal(err)
			}
			fmt.Printf("metrics: %d metric(s) -> %s\n", reg.Len(), *metricsProm)
		}
	}
	if *engStats {
		st := e.Stats()
		fmt.Printf("engine: %d events (%d inline callbacks), %d procs, %.0f events/sec\n",
			st.Events, st.Callbacks, st.Procs, st.EventsPerSec())
	}
}

// checkOutages refuses a processor outage the run would ignore: only the
// hotspot -steal scheduler consults GPU outages (failing work over to the
// CPU); every other path reads whole-node outages alone.
func checkOutages(plan *northup.FaultPlan, app string, steal bool) error {
	if app == "hotspot" && steal {
		return nil
	}
	for _, o := range plan.Outages {
		if o.Class != "" {
			return fmt.Errorf("-faults offline=%d/%s: only -app hotspot -steal honours processor outages; add -steal or take the whole node offline", o.Node, o.Class)
		}
	}
	return nil
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
