package main

import (
	"fmt"
	"math"
	"time"

	nu "repro/northup"
)

// Workload sizes. The out-of-core ones are the paper's Figure 6/7 inputs at
// scale 2 (8k dense grids, 4M-row sparse matrices, 512 MiB of staging), so
// the modeled makespans keep the paper's shape while one op stays under
// ~0.1 s of host time.
const (
	oocDenseN    = 8192
	oocHotChunk  = 4096
	oocSpmvRows  = 4 << 20
	spmvNNZ      = 16
	stageMiB     = 512
	storageMiB   = 6144
	gpuMemMiB    = 4096
	hotspotIters = 60

	streamN         = 16384
	streamChunk     = 2048
	streamSubChunks = 32

	taskGrid      = 32
	taskSpmvRows  = 1 << 20
	taskSpmvIters = 3
	taskChunks    = 256

	fvGemmN, fvGemmShard = 384, 128
	fvHotN, fvHotIters   = 512, 8
	fvSpmvRows           = 64 << 10
	fvStageMiB           = 16
	fvStorageMiB         = 256
	fvCycle              = 12 // 4 seeds per kernel before the seeds repeat

	faultRate = 0.02
)

// fvSpmvKind is uniform, not power-law: the generator sorts each row's
// columns by insertion, so a power-law matrix's cost follows the square of
// its longest row, which the seed sets. One seed in four drew a row of
// 10k-17k non-zeros and a 2x-4x slower op, and functional-verify's op_ms_p90
// spread 0.25 across seeds. The kernel also sums long rows in slices, whose
// rounding broke the package tests' fixed tolerance on about one seed in a
// hundred. Uniform rows cost the same on every seed and match the reference
// bit for bit.
const fvSpmvKind = nu.SparseUniform

// workloads run in this order. Each comment says why the workload exists;
// BENCHMARK.json and README.md carry the same reasons.
var workloads = []*workload{
	// The paper's headline makespans; host time goes to cost models and
	// SpMV row-pointer generation, not to event dispatch.
	{name: "ooc-paper", minUnits: 100, newRunner: apps(1, oocPaperCalls, nil)},
	// sim proc dispatch and sched deques do almost all the work.
	{name: "steal-fine", minUnits: 100, newRunner: apps(1, stealFineCalls, nil)},
	// Multi-hop streams on the proc pump, which every other clean workload
	// bypasses.
	{name: "stream-multihop", minUnits: 200, newRunner: apps(1, streamCalls, nil)},
	// taskgraph placement and the staging cache, absent elsewhere.
	{name: "tasks-affinity", minUnits: 100, newRunner: apps(2, tasksCalls, placementCost)},
	// Real kernels and input generators with sim idle; the only workload
	// where a wrong result can show.
	{name: "functional-verify", minUnits: 100, newRunner: apps(fvCycle, functionalCalls, nil)},
	// The request-serving path: admission, WFQ and per-job runtime churn.
	{name: "serve-open", minUnits: 4, newRunner: newServeRunner},
	// The stream-multihop op with every observer and a fault injector
	// attached, so a clean-path gain that costs this path shows.
	{name: "observed-faulty", minUnits: 100, newRunner: apps(1, observedCalls, observerCost)},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// derive returns an independent sub-seed of seed for one purpose (a
// splitmix64 step), non-negative so generators may add small offsets.
func derive(seed int64, salt uint64) int64 {
	z := uint64(seed) + (salt+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// env says how one facade call's runtime is built.
type env struct {
	tree       func(e *nu.Engine) *nu.Tree
	functional bool
	cacheBytes int64
	// observed attaches a metrics registry, an event recorder and a fault
	// injector seeded with faultSeed.
	observed  bool
	faultSeed int64
}

// appCall is one facade call of an op: run executes it on a fresh runtime
// and returns the modeled makespan; check, if set, verifies its output
// after the timed part of the op.
type appCall struct {
	env   env
	run   func(rt *nu.Runtime, c *opCtx) (nu.Time, error)
	check func(c *opCtx, parent int) error
}

// opCtx is the state one op's calls share.
type opCtx struct {
	acc     *accum
	tr      *tracer
	pr      *probe
	span    int
	corrupt bool
}

// call builds the runtime for ev, runs one facade call on it, and folds the
// runtime's counters in.
func (c *opCtx) call(ev env, run func(*nu.Runtime, *opCtx) (nu.Time, error)) (nu.Time, error) {
	b := c.tr.begin("build", c.span)
	e := nu.NewEngine()
	o := nu.DefaultOptions()
	o.Phantom = !ev.functional
	if ev.cacheBytes > 0 {
		o.Cache = nu.CacheOptions{Enabled: true, CapacityBytes: ev.cacheBytes}
	}
	var reg *nu.MetricsRegistry
	var rec *nu.TraceRecorder
	if ev.observed || c.pr != nil {
		reg, rec = nu.NewMetricsRegistry(), nu.NewTraceRecorder(nu.TraceOptions{})
		o.Metrics, o.Trace = reg, rec
	}
	if ev.observed {
		o.Faults = nu.NewFaultInjector(e, nu.FaultConfig{Seed: ev.faultSeed, TransferFailRate: faultRate})
	}
	rt := nu.NewRuntime(e, ev.tree(e), o)
	c.tr.end(b)

	r := c.tr.begin("run", c.span)
	start := time.Now()
	v, err := run(rt, c)
	c.acc.c.runWall += time.Since(start)
	c.tr.endWithEngine(r, e.Stats().Wall)
	if err != nil {
		return 0, err
	}
	if ev.observed {
		s := c.tr.begin("sync", c.span)
		rt.SyncMetrics()
		c.tr.end(s)
	}
	c.acc.c.addRuntime(rt)
	if c.pr != nil {
		c.pr.fold(rt, reg, rec)
	}
	return v, nil
}

// gen times one input generator of an output check.
func (c *opCtx) gen(parent int, fn func()) {
	s := c.tr.begin("gen", parent)
	start := time.Now()
	fn()
	c.acc.c.genWall += time.Since(start)
	c.tr.end(s)
}

// appRunner runs a workload whose op is a fixed sequence of facade calls,
// each on a freshly built runtime. The calls are timed together; outputs
// are checked afterwards, and every op must reproduce the makespan of the
// first op with the same config.
type appRunner struct {
	seed  int64
	opts  options
	n     int
	calls func(a *appRunner, i int) []appCall
	// alt, in a traced run, is timed against calls (see compare).
	alt  *altRun
	seen map[int]nu.Time
}

// altRun is a second way to run the same op and the per-layer metric their
// median host times give.
type altRun struct {
	calls  func(a *appRunner, i int) []appCall
	metric func(m map[string]float64, opMS, altMS float64)
}

func apps(cycle int, calls func(*appRunner, int) []appCall, alt *altRun) func(int64, options) (runner, error) {
	return func(seed int64, o options) (runner, error) {
		return &appRunner{seed: seed, opts: o, n: cycle, calls: calls, alt: alt, seen: map[int]nu.Time{}}, nil
	}
}

func (a *appRunner) cycle() int { return a.n }

func (a *appRunner) warmUp(acc *accum) { a.op(0, acc, nil, nil) }

func (a *appRunner) op(i int, acc *accum, tr *tracer, pr *probe) {
	c := &opCtx{acc: acc, tr: tr, pr: pr, corrupt: a.opts.corrupt}
	calls := a.calls(a, i)
	c.span = tr.begin("op", -1)
	virt, host, err := c.runCalls(calls)
	if err == nil {
		v := tr.begin("verify", c.span)
		start := time.Now()
		for _, call := range calls {
			if call.check != nil {
				if err = call.check(c, v); err != nil {
					break
				}
			}
		}
		if err == nil {
			err = a.reproduce(i%a.n, virt)
		}
		acc.c.verifyWall += time.Since(start)
		tr.end(v)
	}
	tr.end(c.span)
	acc.addAppOp(i, a.n, host, virt, err)
}

// runCalls runs the timed part of an op.
func (c *opCtx) runCalls(calls []appCall) (virt nu.Time, host time.Duration, err error) {
	start := time.Now()
	for _, call := range calls {
		var v nu.Time
		if v, err = c.call(call.env, call.run); err != nil {
			break
		}
		virt += v
	}
	return virt, time.Since(start), err
}

// reproduce checks determinism: an op must model the same makespan as the
// first op with its config, with or without observers attached.
func (a *appRunner) reproduce(key int, virt nu.Time) error {
	if want, ok := a.seen[key]; ok && want != virt {
		return fmt.Errorf("virtual makespan %v, but the first op of this config modeled %v", virt, want)
	}
	a.seen[key] = virt
	return nil
}

// compare times three rounds of the workload's op against its alternative,
// alternating which runs first, and records the metric the two median round
// times give.
func (a *appRunner) compare(m map[string]float64) {
	if a.alt == nil {
		return
	}
	var opMS, altMS []float64
	c := &opCtx{acc: &accum{}, span: -1}
	for round := 0; round < 3; round++ {
		var tOp, tAlt time.Duration
		for i := 0; i < a.n; i++ {
			first, second := a.calls(a, i), a.alt.calls(a, i)
			if round%2 == 1 {
				first, second = second, first
			}
			_, h1, err1 := c.runCalls(first)
			_, h2, err2 := c.runCalls(second)
			if err1 != nil || err2 != nil {
				return
			}
			if round%2 == 1 {
				h1, h2 = h2, h1
			}
			tOp, tAlt = tOp+h1, tAlt+h2
		}
		opMS = append(opMS, float64(tOp.Nanoseconds())/1e6/float64(a.n))
		altMS = append(altMS, float64(tAlt.Nanoseconds())/1e6/float64(a.n))
	}
	a.alt.metric(m, percentile(opMS, 0.5), percentile(altMS, 0.5))
}

func apuTree(storage, stage int64) func(*nu.Engine) *nu.Tree {
	return func(e *nu.Engine) *nu.Tree {
		return nu.APU(e, nu.APUConfig{Storage: nu.SSD, StorageMiB: storage, DRAMMiB: stage, WithCPU: true})
	}
}

func discreteTree(e *nu.Engine) *nu.Tree {
	return nu.Discrete(e, nu.DiscreteConfig{Storage: nu.SSD, StorageMiB: storageMiB,
		DRAMMiB: stageMiB, GPUMemMiB: gpuMemMiB})
}

// oocPaperCalls: GEMM, HotSpot and SpMV out of core on the SSD APU tree.
func oocPaperCalls(a *appRunner, _ int) []appCall {
	ev := env{tree: apuTree(storageMiB, stageMiB)}
	return []appCall{
		{env: ev, run: func(rt *nu.Runtime, _ *opCtx) (nu.Time, error) {
			r, err := nu.GEMMNorthup(rt, nu.GEMMConfig{N: oocDenseN, Seed: a.seed})
			if err != nil {
				return 0, err
			}
			return r.Stats.Elapsed, nil
		}},
		{env: ev, run: func(rt *nu.Runtime, _ *opCtx) (nu.Time, error) {
			r, err := nu.HotSpotNorthup(rt, nu.HotSpotConfig{N: oocDenseN, Seed: a.seed,
				ChunkDim: oocHotChunk, Iters: hotspotIters})
			if err != nil {
				return 0, err
			}
			return r.Stats.Elapsed, nil
		}},
		{env: ev, run: func(rt *nu.Runtime, _ *opCtx) (nu.Time, error) {
			r, err := nu.SpMVNorthup(rt, nu.SpMVConfig{N: oocSpmvRows, AvgNNZ: spmvNNZ,
				Kind: nu.SparseUniform, Seed: a.seed, Chunks: 4})
			if err != nil {
				return 0, err
			}
			return r.Stats.Elapsed, nil
		}},
	}
}

// stealFineCalls: HotSpot over 32 GPU queues plus the CPU with stealing.
func stealFineCalls(a *appRunner, _ int) []appCall {
	return []appCall{{env: env{tree: apuTree(storageMiB, stageMiB)},
		run: func(rt *nu.Runtime, c *opCtx) (nu.Time, error) {
			r, err := nu.HotSpotSteal(rt, nu.StealConfig{M: oocDenseN, ChunkDim: oocHotChunk,
				Seed: a.seed, GPUQueues: 32, Mode: nu.CPUGPU})
			if err != nil {
				return 0, err
			}
			c.acc.c.stealPops += r.Pops
			c.acc.c.stealSteals += r.Steals
			c.acc.c.cpuTasks += r.TasksByCPU
			c.acc.c.gpuTasks += r.TasksByGPU
			return r.Stats.Elapsed, nil
		}}}
}

// streamCall is the streamed HotSpot run on the 3-level discrete tree.
func streamCall(ev env, seed int64) appCall {
	return appCall{env: ev, run: func(rt *nu.Runtime, _ *opCtx) (nu.Time, error) {
		r, err := nu.HotSpotNorthup(rt, nu.HotSpotConfig{N: streamN, Seed: seed,
			ChunkDim: streamChunk, Iters: hotspotIters, Streamed: true,
			StreamOpts: nu.StreamOptions{SubChunks: streamSubChunks}})
		if err != nil {
			return 0, err
		}
		return r.Stats.Elapsed, nil
	}}
}

// streamCalls: HotSpot with 32-way sub-chunked multi-hop streams.
func streamCalls(a *appRunner, _ int) []appCall {
	return []appCall{streamCall(env{tree: discreteTree}, a.seed)}
}

// observedCalls: streamCalls with registry, recorder and faults attached.
func observedCalls(a *appRunner, _ int) []appCall {
	return []appCall{streamCall(env{tree: discreteTree, observed: true,
		faultSeed: derive(a.seed, 1)}, a.seed)}
}

// observerCost reports the observed op's host time over the clean one's.
var observerCost = &altRun{calls: streamCalls,
	metric: func(m map[string]float64, opMS, altMS float64) {
		m["obs.overhead_share"] = ratio(opMS, altMS) - 1
	}}

// tasksCalls alternates GEMM and SpMV task graphs under affinity placement.
func tasksCalls(a *appRunner, i int) []appCall { return taskGraphCalls(a, i, true) }

// placementCost reports affinity placement's host cost per task over
// locality-blind stealing on the same graphs.
var placementCost = &altRun{
	calls: func(a *appRunner, i int) []appCall { return taskGraphCalls(a, i, false) },
	metric: func(m map[string]float64, opMS, altMS float64) {
		m["taskgraph.placement_us_per_task"] = ratio((opMS-altMS)*1e3, m["taskgraph.tasks_per_op"])
	}}

func taskGraphCalls(a *appRunner, i int, affinity bool) []appCall {
	tree := apuTree(storageMiB, stageMiB)
	topt := nu.TaskOptions{Affinity: affinity}
	if i%2 == 0 {
		// The cache holds one shard set: half the combined working set.
		return []appCall{{env: env{tree: tree, cacheBytes: oocDenseN * oocDenseN * 4},
			run: func(rt *nu.Runtime, c *opCtx) (nu.Time, error) {
				start := time.Now()
				r, st, err := nu.GEMMTasks(rt, nu.GEMMConfig{N: oocDenseN, Seed: a.seed,
					ShardDim: oocDenseN / taskGrid}, topt)
				if err != nil {
					return 0, err
				}
				c.acc.c.addTasks(st, time.Since(start))
				return r.Stats.Elapsed, nil
			}}}
	}
	// The cache holds half the matrix payload.
	return []appCall{{env: env{tree: tree, cacheBytes: taskSpmvRows * spmvNNZ * 8 / 2},
		run: func(rt *nu.Runtime, c *opCtx) (nu.Time, error) {
			start := time.Now()
			r, st, err := nu.SpMVTasks(rt, nu.SpMVConfig{N: taskSpmvRows, AvgNNZ: spmvNNZ,
				Kind: nu.SparseUniform, Seed: a.seed, Iters: taskSpmvIters, Chunks: taskChunks}, topt)
			if err != nil {
				return 0, err
			}
			c.acc.c.addTasks(st, time.Since(start))
			return r.Stats.Elapsed, nil
		}}}
}

// functionalCalls rotates functional GEMM, HotSpot and SpMV, each op with
// its own input seed, and checks every output against the host reference
// at the package tests' tolerances.
func functionalCalls(a *appRunner, i int) []appCall {
	seed := derive(a.seed, uint64(100+i%fvCycle))
	ev := env{tree: apuTree(fvStorageMiB, fvStageMiB), functional: true}
	switch i % 3 {
	case 0:
		var got []float32
		return []appCall{{env: ev,
			run: func(rt *nu.Runtime, _ *opCtx) (nu.Time, error) {
				r, err := nu.GEMMNorthup(rt, nu.GEMMConfig{N: fvGemmN, Seed: seed, ShardDim: fvGemmShard})
				if err != nil {
					return 0, err
				}
				got = r.C
				return r.Stats.Elapsed, nil
			},
			check: func(c *opCtx, parent int) error {
				const n = fvGemmN
				var A, B []float32
				c.gen(parent, func() { A, B = nu.DenseInput(n, n, seed), nu.DenseInput(n, n, seed+1) })
				want := make([]float32, n*n)
				nu.GEMMReference(want, A, B, n, n, n)
				c.acc.c.flops += 2 * n * n * n
				return c.checkClose("gemm", got, want, 1e-4*math.Sqrt(n))
			}}}
	case 1:
		var got []float32
		var chunk int
		return []appCall{{env: ev,
			run: func(rt *nu.Runtime, _ *opCtx) (nu.Time, error) {
				r, err := nu.HotSpotNorthup(rt, nu.HotSpotConfig{N: fvHotN, Seed: seed, Iters: fvHotIters})
				if err != nil {
					return 0, err
				}
				got, chunk = r.Temp, r.ChunkDim
				return r.Stats.Elapsed, nil
			},
			check: func(c *opCtx, parent int) error {
				var temp, power []float32
				c.gen(parent, func() {
					g := nu.HotSpotGridInput(fvHotN, seed)
					temp, power = g.Temp, g.Power
				})
				want, err := nu.HotSpotReferenceBlocked(temp, power, fvHotN, chunk, fvHotIters)
				if err != nil {
					return err
				}
				c.acc.c.flops += 15 * fvHotN * fvHotN * fvHotIters
				return c.checkClose("hotspot", got, want, 1e-3)
			}}}
	default:
		var got []float32
		return []appCall{{env: ev,
			run: func(rt *nu.Runtime, _ *opCtx) (nu.Time, error) {
				r, err := nu.SpMVNorthup(rt, nu.SpMVConfig{N: fvSpmvRows, AvgNNZ: spmvNNZ,
					Kind: fvSpmvKind, Seed: seed, Iters: 1})
				if err != nil {
					return 0, err
				}
				got = r.Y
				return r.Stats.Elapsed, nil
			},
			check: func(c *opCtx, parent int) error {
				var m *nu.CSR
				var x []float32
				c.gen(parent, func() {
					m = nu.SparseInput(fvSpmvKind, fvSpmvRows, spmvNNZ, seed)
					x = nu.VectorInput(fvSpmvRows, seed+1)
				})
				c.acc.c.flops += 2 * float64(m.RowPtr[fvSpmvRows])
				return c.checkClose("spmv", got, nu.SpMVReference(m, x), 1e-4*math.Sqrt(spmvNNZ))
			}}}
	}
}

// checkClose compares an output with its reference element by element.
func (c *opCtx) checkClose(what string, got, want []float32, tol float64) error {
	if c.corrupt && len(got) > 0 {
		got[len(got)/2] += 1
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d outputs, reference has %d", what, len(got), len(want))
	}
	for i := range got {
		if d := math.Abs(float64(got[i] - want[i])); !(d <= tol) {
			return fmt.Errorf("%s: output %d is %g, reference %g (tolerance %g)", what, i, got[i], want[i], tol)
		}
	}
	return nil
}
