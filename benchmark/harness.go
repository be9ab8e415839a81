package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	nu "repro/northup"
)

// runner drives one workload. op runs measured unit i (an app op, or one
// serve rate-point run) and folds its outcome into acc; a nil tracer records
// no spans and a nil probe attaches no observers.
type runner interface {
	op(i int, acc *accum, tr *tracer, pr *probe)
	// warmUp runs the untimed op that ends setup.
	warmUp(acc *accum)
	// cycle is the number of units after which the workload's configs
	// repeat. Deterministic metrics are taken over the first cycle.
	cycle() int
}

// workload is one benchmark input set.
type workload struct {
	name string
	// minUnits is the least number of measured units per run.
	minUnits  int
	newRunner func(seed int64, o options) (runner, error)
}

// options are knobs tests turn; the command line leaves them at zero.
type options struct {
	// corrupt perturbs functional outputs before they are checked.
	corrupt bool
	// serveShort runs the serve ladder as a single half-second 1x point.
	serveShort bool
	// noProfile runs the traced phase without a CPU profile, whose stop
	// alone takes 170 ms; only cpu_share.* reads it.
	noProfile bool
}

// counters accumulate per-layer activity over the measured units.
type counters struct {
	events, callbacks, procs  int64
	engineWall, runWall       time.Duration
	subchunks, hopMoves       int64
	asyncHops, maxInFlight    int64
	tasks, picks, pops        int64
	steals, savedBytes        int64
	taskWall                  time.Duration
	cacheHits, cacheMisses    int64
	cacheHitBytes, evictions  int64
	stealPops, stealSteals    int64
	cpuTasks, gpuTasks        int64
	retries, faults, gaveUp   int64
	injected                  int64
	traceEvents, traceDropped int64
	flops                     float64
	genWall, verifyWall       time.Duration
	// serve-open only: engine events of the benchmark's own slice ticks,
	// which serve.events_per_job leaves out.
	tickEvents int64
}

// addRuntime folds the counters of a runtime that has finished its run.
func (c *counters) addRuntime(rt *nu.Runtime) {
	st := rt.Engine().Stats()
	c.events += st.Events
	c.callbacks += st.Callbacks
	c.procs += st.Procs
	c.engineWall += st.Wall
	ss := rt.StreamStats()
	c.subchunks += ss.SubChunks
	c.hopMoves += ss.HopMoves
	c.asyncHops += ss.AsyncHops
	c.maxInFlight = max(c.maxInFlight, ss.MaxInFlight)
	cs := rt.CacheStats()
	c.cacheHits += cs.Hits
	c.cacheMisses += cs.Misses
	c.cacheHitBytes += cs.HitBytes
	c.evictions += cs.Evictions
	rs := rt.Resilience()
	c.retries += rs.Retries
	c.faults += rs.Faults
	c.gaveUp += rs.GaveUp
	if inj := rt.Faults(); inj != nil {
		fs := inj.Stats()
		c.injected += fs.TransferFails + fs.TransferDelays + fs.AllocFails + fs.OfflineRejects
	}
	if rec := rt.TraceRecorder(); rec != nil {
		c.traceEvents += int64(rec.Len()) + rec.Dropped()
		c.traceDropped += rec.Dropped()
	}
}

func (c *counters) addTasks(st *nu.TaskStats, wall time.Duration) {
	c.tasks += int64(st.Tasks)
	c.picks += st.AffinityPicks
	c.pops += st.Pops
	c.steals += st.Steals
	c.savedBytes += st.SavedBytes
	c.taskWall += wall
}

// accum is the outcome of one measured phase.
type accum struct {
	units     int
	ops       int // completed ops: app ops, or completed serve jobs
	attempted int
	failed    int
	firstErr  error
	// hostMS are the op_ms samples: one per app op, one per virtual-time
	// slice on serve-open (host ms per job completed in the slice).
	hostMS []float64
	// virtNum over virtDen is virtual_ops_per_s, summed over the virtN
	// contributions of the first cycle of units so that it is a pure
	// function of the seed.
	virtNum, virtDen float64
	virtN            int
	c                counters
	wall             time.Duration
	mem0, mem1       runtime.MemStats
	serve            *serveQuality // serve-open only
}

func (a *accum) fail(err error) {
	a.failed++
	if a.firstErr == nil {
		a.firstErr = err
	}
}

// addAppOp records one app op: its timed host duration, its modeled
// makespan, and the error of its run or output check.
func (a *accum) addAppOp(i, cycle int, host time.Duration, virt nu.Time, err error) {
	a.units++
	a.attempted++
	if err != nil {
		a.fail(fmt.Errorf("op %d: %w", i, err))
		return
	}
	a.ops++
	a.hostMS = append(a.hostMS, float64(host.Nanoseconds())/1e6)
	if i < cycle {
		a.virtNum++
		a.virtDen += virt.Seconds()
		a.virtN++
	}
}

// measure runs units until at least minUnits have run and budget has
// elapsed; a timed phase (budget > 0) also ends on a config-cycle boundary,
// so every config runs equally often. A non-nil speed meter samples the
// host's speed between units; the phase's wall time leaves its samples out.
func measure(r runner, minUnits int, budget time.Duration, tr *tracer, pr *probe, sm *speedMeter) *accum {
	acc := &accum{}
	runtime.ReadMemStats(&acc.mem0)
	start := time.Now()
	var sampling time.Duration
	for i := 0; ; i++ {
		if tr != nil {
			tr.op = i
		}
		r.op(i, acc, tr, pr)
		sampling += sm.maybeSample()
		aligned := acc.units%r.cycle() == 0
		if acc.units >= minUnits && time.Since(start) >= budget && (aligned || budget == 0) {
			break
		}
	}
	acc.wall = time.Since(start) - sampling
	runtime.ReadMemStats(&acc.mem1)
	return acc
}

// opsPerSec is the phase's throughput.
func (a *accum) opsPerSec() float64 { return float64(a.ops) / a.wall.Seconds() }

func (a *accum) virtualOpsPerSec() float64 { return ratio(a.virtNum, a.virtDen) }

// setupReps is how many times a run sets a workload up; setup_s is the
// median. One set-up takes about one op, whose time varies with the host's
// bursts; at 7 the medians of two sets of runs still disagreed.
const setupReps = 15

// runConfig is one invocation's measurement settings. The command line sets
// seed, seconds and traceDir; tests also shorten minUnits and setups.
type runConfig struct {
	seed     int64
	seconds  float64
	minUnits int // 0: the workload's own minimum
	setups   int
	traceDir string // "" for an untraced run
	opts     options
}

// freshProcessState runs before each workload: collect garbage, return it
// to the OS, and reset the peak-RSS high-water mark.
func freshProcessState() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux); elsewhere the peak
	// covers the whole process.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns VmHWM in MB, falling back to the Go runtime's total
// obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}

// runWorkload measures one workload: repeated setup (construction plus an
// untimed warm-up op), the untimed-by-tracing measured phase, and — in a
// traced run — a second, traced phase with probes and a CPU profile. It
// returns the runner it measured, which hostLayers takes.
func runWorkload(w *workload, cfg runConfig, tr *tracer) (*result, runner, error) {
	freshProcessState()
	minUnits := w.minUnits
	if cfg.minUnits > 0 {
		minUnits = cfg.minUnits
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	traced := cfg.traceDir != ""
	if traced {
		budget /= 2
	}

	var r runner
	sm := newSpeedMeter()
	// Each set-up is scaled by the reference sample taken just before it:
	// the whole set-up phase can fall inside one of the host's bursts, which
	// the run's mean slowness would not describe.
	var setups, rawSetups []float64
	for k := 0; k < max(cfg.setups, 1); k++ {
		sm.sample()
		start := time.Now()
		var err error
		if r, err = w.newRunner(cfg.seed, cfg.opts); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		warm := &accum{}
		r.warmUp(warm)
		if warm.firstErr != nil {
			return nil, nil, fmt.Errorf("%s: warm-up: %w", w.name, warm.firstErr)
		}
		d := time.Since(start).Seconds()
		rawSetups = append(rawSetups, d)
		setups = append(setups, d/sm.lastSlowness())
	}

	acc := measure(r, minUnits, budget, nil, nil, sm)
	res := &result{Workload: w.name, Seed: cfg.seed, Traced: traced,
		Attempted: acc.attempted, Failed: acc.failed,
		E2E: map[string]float64{}, Samples: map[string]int{},
		refMS: sm.refMS(), slowness: sm.slowness()}
	if acc.firstErr != nil {
		res.Notes = append(res.Notes, "first failure: "+acc.firstErr.Error())
	}
	raw := map[string]float64{
		"ops_per_s":  acc.opsPerSec(),
		"op_ms_mean": mean(acc.hostMS),
		"op_ms_p90":  percentile(acc.hostMS, 0.90),
		"setup_s":    percentile(rawSetups, 0.50),
	}
	e := res.E2E
	e["ops_per_s"] = raw["ops_per_s"] * res.slowness
	e["op_ms_mean"] = raw["op_ms_mean"] / res.slowness
	e["op_ms_p90"] = raw["op_ms_p90"] / res.slowness
	e["alloc_mb_per_op"] = ratio(float64(acc.mem1.TotalAlloc-acc.mem0.TotalAlloc), float64(acc.ops)) / 1e6
	e["peak_rss_mb"] = peakRSSMB()
	e["setup_s"] = percentile(setups, 0.50)
	e["virtual_ops_per_s"] = acc.virtualOpsPerSec()
	res.Notes = append(res.Notes, fmt.Sprintf(
		"host speed: reference %.3f ms (nominal %.1f, %d samples); unscaled ops_per_s %.6g, op_ms_mean %.6g, op_ms_p90 %.6g, setup_s %.6g",
		res.refMS, refNominalMS, len(sm.samplesMS), raw["ops_per_s"], raw["op_ms_mean"], raw["op_ms_p90"], raw["setup_s"]))
	for _, d := range endToEnd {
		res.Samples[d.name] = acc.ops
	}
	res.Samples["op_ms_mean"] = len(acc.hostMS)
	res.Samples["op_ms_p90"] = len(acc.hostMS)
	res.Samples["peak_rss_mb"] = 1
	res.Samples["setup_s"] = len(setups)
	res.Samples["virtual_ops_per_s"] = acc.virtN
	if acc.serve != nil {
		res.Notes = append(res.Notes, acc.serve.notes()...)
	}
	if !traced {
		return res, r, nil
	}

	if err := tracedPhase(w, r, cfg, minUnits, budget, res, tr); err != nil {
		return nil, nil, err
	}
	return res, r, nil
}

// profilePath is where a traced run writes a workload's CPU profile.
func profilePath(traceDir, workload string) string {
	return filepath.Join(traceDir, "cpu-"+workload+".pprof")
}

// tracedPhase measures the per-layer metrics: a traced phase of at least 20
// units (one ladder on serve-open) under a CPU profile, then the layer view
// of it. runAll adds the metrics that need more than the workload's own ops
// (see hostLayers).
func tracedPhase(w *workload, r runner, cfg runConfig, minUnits int, budget time.Duration,
	res *result, tr *tracer) error {

	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	tr.workload = w.name
	units := min(20, minUnits)
	var acc *accum
	phase := func() { acc = measure(r, units, budget, tr, nil, nil) }
	if cfg.opts.noProfile {
		phase()
	} else if err := profiled(profilePath(cfg.traceDir, w.name), phase); err != nil {
		return err
	}
	res.Attempted += acc.attempted
	res.Failed += acc.failed
	if acc.firstErr != nil {
		res.Notes = append(res.Notes, "first traced failure: "+acc.firstErr.Error())
	}

	m, err := layerView(r, acc, units)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	m["bench.traced_ops_per_s"] = acc.opsPerSec()
	m["bench.span_overhead_share"] = ratio(res.E2E["ops_per_s"]/res.slowness, m["bench.traced_ops_per_s"]) - 1
	m["bench.ref_ms"] = res.refMS
	res.Layer = m
	return nil
}

// profiled runs fn under a CPU profile written to path.
func profiled(path string, fn func()) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	fn()
	pprof.StopCPUProfile()
	return f.Close()
}

// layerView derives the per-layer metrics of a measured phase of runner r:
// its counters, then one probe op per config (at most units of them) with a
// registry and a recorder attached, and on serve-open the ladder's service
// quality. Every deterministic per-layer metric comes from here.
func layerView(r runner, acc *accum, units int) (map[string]float64, error) {
	pr := newProbe()
	probeAcc := &accum{}
	for i := 0; i < min(r.cycle(), units); i++ {
		r.op(i, probeAcc, nil, pr)
	}
	pr.ops = probeAcc.ops
	if probeAcc.firstErr != nil {
		return nil, fmt.Errorf("probe: %w", probeAcc.firstErr)
	}
	m := layerMetrics(acc)
	pr.layer(m)
	if acc.serve != nil {
		acc.serve.layer(m)
	}
	return m, nil
}

// hostLayers adds the per-layer metrics of a traced run that need more than
// the workload's own ops: the host cost of r's op against its alternative
// (placement cost, observer overhead), the CPU profile's shares by module,
// from go tool pprof, and the engine's dispatch costs from a ping loop.
func hostLayers(res *result, r runner, traceDir string, tr *tracer) {
	m := res.Layer
	if a, ok := r.(*appRunner); ok {
		a.compare(m)
	}
	m["sim.dispatch_ns.proc"], m["sim.dispatch_ns.callback"] = tr.dispatch()
	shares, err := cpuShares(profilePath(traceDir, res.Workload))
	if err != nil {
		res.Notes = append(res.Notes, "cpu_share.* omitted: "+err.Error())
	}
	for _, mod := range cpuShareModules {
		if err != nil {
			delete(m, "cpu_share."+mod)
		} else {
			m["cpu_share."+mod] = shares[mod]
		}
	}
}

// layerMetrics derives the per-layer metrics from a measured phase.
func layerMetrics(acc *accum) map[string]float64 {
	c := &acc.c
	ops := float64(acc.ops)
	perOp := func(v float64) float64 { return ratio(v, ops) }
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	events := float64(c.events - c.tickEvents)
	m["sim.events_per_op"] = perOp(events)
	m["sim.callback_share"] = ratio(float64(c.callbacks-c.tickEvents), events)
	m["sim.procs_per_op"] = perOp(float64(c.procs))
	m["sim.ns_per_event"] = ratio(float64(c.engineWall.Nanoseconds()), float64(c.events))
	m["sim.engine_share"] = ratio(c.engineWall.Seconds(), acc.wall.Seconds())
	m["stream.subchunks_per_op"] = perOp(float64(c.subchunks))
	m["stream.hop_moves_per_op"] = perOp(float64(c.hopMoves))
	m["stream.async_hop_share"] = ratio(float64(c.asyncHops), float64(c.hopMoves))
	m["stream.max_in_flight"] = float64(c.maxInFlight)
	m["taskgraph.tasks_per_op"] = perOp(float64(c.tasks))
	m["taskgraph.affinity_pick_share"] = ratio(float64(c.picks), float64(c.picks+c.pops+c.steals))
	m["taskgraph.saved_mb_per_op"] = perOp(float64(c.savedBytes)) / 1e6
	m["taskgraph.host_us_per_task"] = ratio(float64(c.taskWall.Microseconds()), float64(c.tasks))
	m["cache.hit_rate"] = ratio(float64(c.cacheHits), float64(c.cacheHits+c.cacheMisses))
	m["cache.hit_mb_per_op"] = perOp(float64(c.cacheHitBytes)) / 1e6
	m["cache.evictions_per_op"] = perOp(float64(c.evictions))
	m["sched.steals_per_op"] = perOp(float64(c.stealSteals + c.steals))
	m["sched.pops_per_op"] = perOp(float64(c.stealPops + c.pops))
	m["sched.cpu_task_share"] = ratio(float64(c.cpuTasks), float64(c.cpuTasks+c.gpuTasks))
	m["workload.gen_ms_per_op"] = perOp(float64(c.genWall.Nanoseconds()) / 1e6)
	m["apps.verify_ms_per_op"] = perOp(float64(c.verifyWall.Nanoseconds()) / 1e6)
	m["apps.computed_gflop_per_op"] = perOp(c.flops) / 1e9
	m["core.retries_per_op"] = perOp(float64(c.retries))
	m["core.faults_per_op"] = perOp(float64(c.faults))
	m["core.gave_up_per_op"] = perOp(float64(c.gaveUp))
	m["fault.injected_per_op"] = perOp(float64(c.injected))
	m["trace.events_per_op"] = perOp(float64(c.traceEvents))
	m["trace.dropped"] = float64(c.traceDropped)
	m["go.gc_cycles_per_op"] = perOp(float64(acc.mem1.NumGC - acc.mem0.NumGC))
	m["go.gc_pause_ms_per_op"] = perOp(float64(acc.mem1.PauseTotalNs-acc.mem0.PauseTotalNs) / 1e6)
	m["go.mallocs_per_op"] = perOp(float64(acc.mem1.Mallocs - acc.mem0.Mallocs))
	if acc.serve != nil {
		m["serve.host_us_per_job"] = perOp(float64(acc.c.runWall.Microseconds()))
		m["serve.events_per_job"] = m["sim.events_per_op"]
		m["serve.alloc_kb_per_job"] = perOp(float64(acc.mem1.TotalAlloc-acc.mem0.TotalAlloc)) / 1e3
	}
	return m
}
