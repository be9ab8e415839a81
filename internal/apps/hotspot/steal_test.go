package hotspot

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

func newStealRuntime(phantom, withCPU bool) *core.Runtime {
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64,
		DRAMMiB: 16, WithCPU: withCPU})
	opts := core.DefaultOptions()
	opts.Phantom = phantom
	return core.NewRuntime(e, tree, opts)
}

// newPaperScaleStealRuntime builds the paper's full-size APU topology
// (8 GiB of SSD inputs, the 2 GiB staging buffer) in phantom mode.
func newPaperScaleStealRuntime() *core.Runtime {
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 8192,
		DRAMMiB: 2048, WithCPU: true})
	opts := core.DefaultOptions()
	opts.Phantom = true
	return core.NewRuntime(e, tree, opts)
}

func TestStealMatchesBlockedReference(t *testing.T) {
	// The queue-scheduled execution must compute exactly what the simple
	// kernel path computes: scheduling cannot change results.
	cfg := StealConfig{M: 64, ChunkDim: 64, Seed: 5, Iters: 4, GPUQueues: 2, Mode: CPUGPU}
	res, err := RunSteal(newStealRuntime(false, true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.HotSpotGrid(cfg.M, cfg.Seed)
	want, err := ReferenceBlocked(g.Temp, g.Power, cfg.M, cfg.ChunkDim, cfg.Iters)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Temp, want) {
		t.Fatal("stolen-schedule result differs from blocked reference")
	}
	if res.TasksByCPU == 0 || res.TasksByGPU == 0 {
		t.Fatalf("work not spread: cpu=%d gpu=%d", res.TasksByCPU, res.TasksByGPU)
	}
	total := res.TasksByCPU + res.TasksByGPU
	wantTasks := int64((cfg.M / cfg.ChunkDim) * (cfg.M / cfg.ChunkDim) * cfg.Iters * (cfg.ChunkDim / BlockDim))
	if total != wantTasks {
		t.Fatalf("executed %d tasks, want %d", total, wantTasks)
	}
}

func TestGPUOnlyMatchesReferenceToo(t *testing.T) {
	cfg := StealConfig{M: 64, ChunkDim: 32, Seed: 5, Iters: 3, GPUQueues: 8, Mode: GPUOnly}
	res, err := RunSteal(newStealRuntime(false, false), cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.HotSpotGrid(cfg.M, cfg.Seed)
	want, err := ReferenceBlocked(g.Temp, g.Power, cfg.M, cfg.ChunkDim, cfg.Iters)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Temp, want) {
		t.Fatal("GPU-only queue result differs from reference")
	}
	if res.TasksByCPU != 0 {
		t.Fatalf("GPU-only mode ran %d CPU tasks", res.TasksByCPU)
	}
	if res.Stats.Breakdown.Busy(trace.CPUCompute) != 0 {
		t.Fatal("GPU-only mode charged CPU compute")
	}
}

func TestStealingImprovesOnGPUOnly(t *testing.T) {
	// Fig. 11's headline: CPU+GPU work stealing beats GPU-only execution.
	mk := func(mode StealMode) sim.Time {
		// The paper's (16k, 8k) configuration, feasible in phantom mode:
		// 512 row-tasks per chunk over 36 queues give each queue enough
		// elements for stealing to balance the load (§V-E's requirement
		// that "the parameter n has to be big enough").
		cfg := StealConfig{M: 16384, ChunkDim: 8192, Iters: 60, GPUQueues: 32, Mode: mode}
		res, err := RunSteal(newPaperScaleStealRuntime(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Elapsed
	}
	gpuOnly := mk(GPUOnly)
	stolen := mk(CPUGPU)
	if stolen >= gpuOnly {
		t.Fatalf("stealing (%v) not faster than GPU-only (%v)", stolen, gpuOnly)
	}
	gain := 1 - float64(stolen)/float64(gpuOnly)
	if gain < 0.05 || gain > 0.40 {
		t.Fatalf("stealing gain %.1f%% outside the plausible Fig. 11 band", 100*gain)
	}
}

func TestStealsActuallyHappen(t *testing.T) {
	cfg := StealConfig{M: 512, ChunkDim: 512, Iters: 4, GPUQueues: 4, Mode: CPUGPU}
	res, err := RunSteal(newStealRuntime(true, true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steals == 0 {
		t.Fatal("no steals occurred; CPU queues never relieved")
	}
}

func TestMoreQueuesHelp(t *testing.T) {
	// The paper finds 32 queues best: more resident workgroups hide
	// latency better.
	elapsed := func(q int) sim.Time {
		cfg := StealConfig{M: 1024, ChunkDim: 512, Iters: 60, GPUQueues: q, Mode: GPUOnly}
		res, err := RunSteal(newStealRuntime(true, false), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Elapsed
	}
	t8, t16, t32 := elapsed(8), elapsed(16), elapsed(32)
	if !(t32 < t16 && t16 < t8) {
		t.Fatalf("queue scaling not monotone: 8q=%v 16q=%v 32q=%v", t8, t16, t32)
	}
}

func TestCPUGPUNeedsCPU(t *testing.T) {
	cfg := StealConfig{M: 64, ChunkDim: 32, Iters: 1, Mode: CPUGPU}
	if _, err := RunSteal(newStealRuntime(true, false), cfg); err == nil {
		t.Fatal("CPU+GPU mode ran without a CPU")
	}
}

// newOutageRuntime builds the small APU with a fault injector whose GPU at
// the leaf is offline for the given window.
func newOutageRuntime(withCPU bool, w fault.Window) (*core.Runtime, *fault.Injector) {
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64,
		DRAMMiB: 16, WithCPU: withCPU})
	inj := fault.New(e, fault.Config{Seed: 7})
	inj.TakeProcOffline(tree.Leaves()[0].ID, fault.ClassGPU, w)
	opts := core.DefaultOptions()
	opts.Faults = inj
	return core.NewRuntime(e, tree, opts), inj
}

func TestGPUOutageFailsOverToCPU(t *testing.T) {
	// The GPU is down for the whole run: every queued GPU task must drain
	// through the CPU steal path, bit-correct, with failovers accounted.
	rt, _ := newOutageRuntime(true, fault.Window{From: 0, Until: sim.Seconds(1e6)})
	cfg := StealConfig{M: 64, ChunkDim: 64, Seed: 5, Iters: 4, GPUQueues: 2, Mode: CPUGPU}
	res, err := RunSteal(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.HotSpotGrid(cfg.M, cfg.Seed)
	want, err := ReferenceBlocked(g.Temp, g.Power, cfg.M, cfg.ChunkDim, cfg.Iters)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Temp, want) {
		t.Fatal("failed-over result differs from reference")
	}
	if res.TasksByGPU != 0 {
		t.Fatalf("offline GPU still ran %d tasks", res.TasksByGPU)
	}
	wantTasks := int64((cfg.M / cfg.ChunkDim) * (cfg.M / cfg.ChunkDim) * cfg.Iters * (cfg.ChunkDim / BlockDim))
	if res.TasksByCPU != wantTasks {
		t.Fatalf("CPU absorbed %d tasks, want all %d", res.TasksByCPU, wantTasks)
	}
	if res.Failovers == 0 {
		t.Fatal("no failovers recorded despite a full-run GPU outage")
	}
	if got := rt.Resilience().Failovers; got != res.Failovers {
		t.Fatalf("runtime counted %d failovers, steal result %d", got, res.Failovers)
	}
}

func TestGPURecoveryResumesWork(t *testing.T) {
	// A transient outage: once the window closes the GPU rejoins, so both
	// classes execute tasks and the result still matches the reference.
	// Size the window off a fault-free baseline so it ends mid-computation
	// regardless of the simulated device speeds.
	cfg := StealConfig{M: 64, ChunkDim: 64, Seed: 5, Iters: 8, GPUQueues: 2, Mode: CPUGPU}
	base, err := RunSteal(newStealRuntime(false, true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := newOutageRuntime(true, fault.Window{From: 0, Until: base.Stats.Elapsed / 2})
	res, err := RunSteal(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.HotSpotGrid(cfg.M, cfg.Seed)
	want, err := ReferenceBlocked(g.Temp, g.Power, cfg.M, cfg.ChunkDim, cfg.Iters)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Temp, want) {
		t.Fatal("post-recovery result differs from reference")
	}
	if res.TasksByGPU == 0 {
		t.Fatal("GPU never resumed after the outage window closed")
	}
}

func TestGPUOnlyOutageStallsUntilRecovery(t *testing.T) {
	// Without a CPU there is nothing to fail over to: GPU-only execution
	// must wait out the outage and then finish correctly.
	recovery := sim.Milliseconds(5)
	rt, _ := newOutageRuntime(false, fault.Window{From: 0, Until: recovery})
	cfg := StealConfig{M: 64, ChunkDim: 32, Seed: 5, Iters: 3, GPUQueues: 8, Mode: GPUOnly}
	res, err := RunSteal(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Elapsed < recovery {
		t.Fatalf("run finished at %v, inside the outage ending at %v", res.Stats.Elapsed, recovery)
	}
	g := workload.HotSpotGrid(cfg.M, cfg.Seed)
	want, err := ReferenceBlocked(g.Temp, g.Power, cfg.M, cfg.ChunkDim, cfg.Iters)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Temp, want) {
		t.Fatal("stalled GPU-only result differs from reference")
	}
	if res.Failovers != 0 {
		t.Fatalf("GPU-only mode recorded %d failovers", res.Failovers)
	}
}

func TestStealConfigValidation(t *testing.T) {
	rt := newStealRuntime(true, true)
	if _, err := RunSteal(rt, StealConfig{M: 100, ChunkDim: 30}); err == nil {
		t.Fatal("invalid config accepted")
	}
	// Zero means the default; a negative count is refused by name.
	for _, tc := range []struct {
		cfg  StealConfig
		want string
	}{
		{StealConfig{M: 256, Iters: -1}, "Iters=-1"},
		{StealConfig{M: 256, GPUQueues: -4}, "GPUQueues=-4"},
	} {
		rt := newStealRuntime(true, true)
		_, err := RunSteal(rt, tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want a refusal naming %s", tc.cfg, err, tc.want)
		}
		if now := rt.Engine().Now(); now != 0 {
			t.Errorf("%+v: refused at %v, after charges", tc.cfg, now)
		}
	}
	cfg := StealConfig{M: 256}
	if err := cfg.setDefaults(); err != nil || cfg.Iters != 60 || cfg.GPUQueues != 32 {
		t.Fatalf("zero fields: err %v, defaults %+v", err, cfg)
	}
}

// TestUnknownStealModeRefused: a Mode other than GPUOnly and CPUGPU is
// refused by name before anything is charged, where it used to run as
// GPUOnly while printing as "cpu+gpu", and it prints as its value.
func TestUnknownStealModeRefused(t *testing.T) {
	rt := newStealRuntime(true, true)
	_, err := RunSteal(rt, StealConfig{M: 512, ChunkDim: 256, Iters: 3, Mode: 7})
	if err == nil || !strings.Contains(err.Error(), "StealConfig.Mode=StealMode(7)") {
		t.Errorf("Mode 7: err = %v, want a refusal naming StealConfig.Mode", err)
	}
	if now := rt.Engine().Now(); now != 0 {
		t.Errorf("Mode 7 refused at %v, after charges", now)
	}
	for m, want := range map[StealMode]string{GPUOnly: "gpu-only", CPUGPU: "cpu+gpu",
		7: "StealMode(7)", -1: "StealMode(-1)"} {
		if got := m.String(); got != want {
			t.Errorf("StealMode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

// TestStealWorkersAreCallbacks guards that the leaf balancer's workers run
// as engine callbacks, not procs: the proc count does not grow with the
// queue count, and every executed row costs at least one callback.
func TestStealWorkersAreCallbacks(t *testing.T) {
	for _, mode := range []StealMode{CPUGPU, GPUOnly} {
		var procs []int64
		for _, q := range []int{3, 32} {
			rt := newStealRuntime(true, mode == CPUGPU)
			res, err := RunSteal(rt, StealConfig{M: 512, ChunkDim: 256, Iters: 3, GPUQueues: q, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			st := rt.Engine().Stats()
			procs = append(procs, st.Procs)
			if rows := res.TasksByGPU + res.TasksByCPU; st.Callbacks < rows {
				t.Errorf("%v, %d queues: %d callbacks for %d rows", mode, q, st.Callbacks, rows)
			}
		}
		if procs[0] != procs[1] {
			t.Errorf("%v: %d procs with 3 GPU queues, %d with 32", mode, procs[0], procs[1])
		}
	}
}

// TestStealAllocsDoNotGrowWithIterations guards the steady state of the
// callback workers: a Jacobi iteration allocates nothing, so a run of 40
// iterations allocates no more than a run of 5.
func TestStealAllocsDoNotGrowWithIterations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	allocs := func(iters int) float64 {
		return testing.AllocsPerRun(3, func() {
			cfg := StealConfig{M: 512, ChunkDim: 256, Iters: iters, GPUQueues: 8, Mode: CPUGPU}
			if _, err := RunSteal(newStealRuntime(true, true), cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(5), allocs(40); many > few {
		t.Fatalf("%v allocations at 40 iterations, %v at 5", many, few)
	}
}

// stealGoldenCase is one pinned run of the leaf balancer.
type stealGoldenCase struct {
	name       string
	mode       StealMode
	outage     bool // the leaf GPU is offline for part of the run
	functional bool
}

// runStealGolden runs one case on the small APU with a trace recorder and
// formats every observable the golden pins: elapsed, busy time per
// category, the scheduling counters, and the FNV of the ordered trace.
func runStealGolden(t *testing.T, tc stealGoldenCase) string {
	t.Helper()
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64, DRAMMiB: 16, WithCPU: true})
	rec := trace.NewRecorder(trace.Options{})
	opts := core.DefaultOptions()
	opts.Phantom = !tc.functional
	opts.Trace = rec
	if tc.outage {
		inj := fault.New(e, fault.Config{Seed: 7})
		inj.TakeProcOffline(tree.Leaves()[0].ID, fault.ClassGPU,
			fault.Window{From: sim.Milliseconds(1), Until: sim.Milliseconds(3)})
		opts.Faults = inj
	}
	rt := core.NewRuntime(e, tree, opts)
	cfg := StealConfig{M: 256, ChunkDim: 128, Seed: 5, Iters: 5, GPUQueues: 3, Mode: tc.mode}
	res, err := RunSteal(rt, cfg)
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "elapsed=%d busy=", res.Stats.Elapsed)
	for _, c := range trace.Categories {
		fmt.Fprintf(&sb, "%d/", res.Stats.Breakdown.Busy(c))
	}
	fmt.Fprintf(&sb, " steals=%d pops=%d failovers=%d gpu=%d cpu=%d",
		res.Steals, res.Pops, res.Failovers, res.TasksByGPU, res.TasksByCPU)
	h := fnv.New64a()
	evs := rec.Events()
	for _, ev := range evs {
		fmt.Fprintf(h, "%d|%d|%s|%d|%s|%d|%d|%d|%d\n", ev.Kind, ev.Cat, ev.Name,
			ev.Lane.Node, ev.Lane.Track, ev.Start, ev.Dur, ev.Value, ev.Seq)
	}
	fmt.Fprintf(&sb, " events=%d trace=%016x", len(evs), h.Sum64())
	return sb.String()
}

// TestStealGolden pins the leaf balancer's schedule in both modes, with
// and without a GPU outage that opens and closes mid-run, functional and
// phantom. A change to the worker loop or the victim order that fails it
// moved a schedule.
func TestStealGolden(t *testing.T) {
	for _, mode := range []StealMode{CPUGPU, GPUOnly} {
		for _, outage := range []bool{false, true} {
			for _, functional := range []bool{false, true} {
				tc := stealGoldenCase{name: mode.String(), mode: mode, outage: outage, functional: functional}
				if outage {
					tc.name += "/outage"
				}
				if functional {
					tc.name += "/functional"
				}
				t.Run(tc.name, func(t *testing.T) {
					got := runStealGolden(t, tc)
					if w, ok := stealGoldenWant[tc.name]; !ok || got != w {
						t.Errorf("%s:\n got %s\nwant %s", tc.name, got, w)
					}
				})
			}
		}
	}
}

// stealGoldenWant holds each case's pinned observables.
var stealGoldenWant = map[string]string{
	"cpu+gpu":                    "elapsed=2451564 busy=1426800/486400/0/0/40000/53300/3442053/106000/ steals=12 pops=148 failovers=0 gpu=80 cpu=80 events=374 trace=bc48b3e10222415c",
	"cpu+gpu/functional":         "elapsed=2451564 busy=1426800/486400/0/0/40000/53300/3442053/106000/ steals=12 pops=148 failovers=0 gpu=80 cpu=80 events=374 trace=bc48b3e10222415c",
	"cpu+gpu/outage":             "elapsed=2563064 busy=2140200/243200/0/0/40000/53300/3318350/106000/ steals=46 pops=114 failovers=40 gpu=40 cpu=120 events=408 trace=09002cc3e587a4d1",
	"cpu+gpu/outage/functional":  "elapsed=2563064 busy=2140200/243200/0/0/40000/53300/3318350/106000/ steals=46 pops=114 failovers=40 gpu=40 cpu=120 events=408 trace=09002cc3e587a4d1",
	"gpu-only":                   "elapsed=2449589 busy=0/972800/0/0/40000/53300/3447978/90000/ steals=24 pops=136 failovers=0 gpu=160 cpu=0 events=370 trace=159e148ebdbbeb7e",
	"gpu-only/functional":        "elapsed=2449589 busy=0/972800/0/0/40000/53300/3447978/90000/ steals=24 pops=136 failovers=0 gpu=160 cpu=0 events=370 trace=159e148ebdbbeb7e",
	"gpu-only/outage":            "elapsed=3820914 busy=0/972800/0/0/40000/53300/3053340/90000/ steals=24 pops=136 failovers=0 gpu=160 cpu=0 events=370 trace=2bdd702a69e10e37",
	"gpu-only/outage/functional": "elapsed=3820914 busy=0/972800/0/0/40000/53300/3053340/90000/ steals=24 pops=136 failovers=0 gpu=160 cpu=0 events=370 trace=2bdd702a69e10e37",
}
