package figures

import (
	"encoding/json"
	"fmt"
	"maps"
	"strings"

	"repro/internal/apps/gemm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/taskgraph"
	"repro/internal/topo"
)

// The perf baseline: the three case-study applications run out-of-core on
// the SSD tree in phantom mode with the metrics registry attached, beside
// the streamed shard, the serve mix and the affinity task graph, and each
// run's full metric profile — virtual latency, per-category busy time, span
// counts, moved bytes, cache and scheduler counters, and the engine's
// event, callback and process counts — is captured as a PerfProfile.
// `northup-bench -baseline` writes the profile to BENCH_perf.json, and
// TestCommittedSweepsRegenerate regenerates it and requires the committed
// bytes: the simulation is deterministic, so every moved value is a change
// the commit that moves it must regenerate and explain.

// perfSchema versions the baseline document.
const perfSchema = "northup-perf/v2"

// AppPerf is one application's profile.
type AppPerf struct {
	// Name is the App's display name (dense-mm, hotspot-2d, csr-adaptive).
	Name string `json:"name"`
	// ElapsedNS is the run's virtual makespan in nanoseconds.
	ElapsedNS int64 `json:"elapsed_ns"`
	// Metrics is the flattened metrics registry at end of run (counter
	// totals, gauge values, histogram buckets — see obs.Registry.Flatten)
	// plus the engine's northup_sim_{events,callbacks,procs}_total. Only
	// non-zero series are kept: an absent series reads as 0.
	Metrics map[string]float64 `json:"metrics"`
}

// PerfProfile is the machine-readable perf baseline (BENCH_perf.json).
type PerfProfile struct {
	Schema string `json:"schema"`
	// Scale is the figures scale the suite ran at.
	Scale int       `json:"scale"`
	Apps  []AppPerf `json:"apps"`
}

// PerfSuite runs the suite's six entries with metrics attached and returns
// the profile.
func PerfSuite(o Options) (*PerfProfile, error) {
	o, err := o.norm()
	if err != nil {
		return nil, err
	}
	prof := &PerfProfile{Schema: perfSchema, Scale: o.Scale}
	for _, app := range Apps {
		reg := obs.NewRegistry()
		rt := o.newPerfRuntime(reg)
		var stats core.RunStats
		switch app {
		case GEMM:
			stats, err = runGEMM(rt, SSD, o)
		case HotSpot:
			stats, err = runHotSpot(rt, SSD, o)
		case SpMV:
			stats, err = runSpMV(rt, SSD, o)
		}
		if err != nil {
			return nil, fmt.Errorf("figures: perf suite: %v: %w", app, err)
		}
		prof.add(app.String(), stats.Elapsed, reg.Flatten(), rt.Engine().Stats())
	}
	// Fourth entry: the adaptive streamed GEMM shard on the discrete tree
	// (the `stream` figure's workload), so a lost hop overlap — slower
	// makespan, fewer sub-chunks, shrunken in-flight peak — fails the gate.
	reg := obs.NewRegistry()
	eng := sim.NewEngine()
	payload := int64(o.denseN()/2) * streamShardCols * 4
	elapsed, _, _, err := o.runStreamedShard(eng, payload, 0, reg)
	if err != nil {
		return nil, fmt.Errorf("figures: perf suite: stream-overlap: %w", err)
	}
	prof.add("stream-overlap", elapsed, reg.Flatten(), eng.Stats())
	// Fifth entry: the multi-tenant serve engine at the sweep's 1x offered
	// load, so an admission, fair-queueing or quota regression — longer
	// makespan, shifted latency histograms, changed rejection counts — fails
	// the gate. The merged registry folds the runtime's transfer/compute
	// metrics together with every tenant's northup_serve_* series.
	srvEng, err := serve.New(serveBaseScenario(1), serve.RunOptions{Phantom: true})
	if err != nil {
		return nil, fmt.Errorf("figures: perf suite: serve-mix: %w", err)
	}
	srvRep, err := srvEng.Run()
	if err != nil {
		return nil, fmt.Errorf("figures: perf suite: serve-mix: %w", err)
	}
	es := srvRep.Engine
	prof.add("serve-mix", sim.Time(srvRep.ElapsedNS), srvEng.MergedRegistry().Flatten(),
		sim.Stats{Events: es.Events, Callbacks: es.Callbacks, Procs: es.Procs})
	// Sixth entry: the affinity ablation's GEMM task graph under
	// residency-aware placement, so a scheduler regression — a scorer that
	// stops seeing resident extents, placements drifting back to the
	// stealing order, moved bytes creeping up — fails the gate even while
	// the numerical result stays correct.
	reg = obs.NewRegistry()
	rt := o.newAffinityRuntime(reg, o.affinityGemmCache())
	affRes, affStats, err := gemm.RunTasks(rt, o.affinityGemmConfig(), taskgraph.Options{Affinity: true})
	if err != nil {
		return nil, fmt.Errorf("figures: perf suite: affinity: %w", err)
	}
	affMetrics := reg.Flatten()
	affMetrics["northup_sched_tasks_executed"] = float64(affStats.Tasks)
	affMetrics["northup_sched_affinity_picks"] = float64(affStats.AffinityPicks)
	prof.add("affinity", affRes.Stats.Elapsed, affMetrics, rt.Engine().Stats())
	return prof, nil
}

// add appends one entry. Its engine's event, callback and process counts
// join the metrics because callback work falling back onto processes can
// leave every virtual output identical; only these counts show it.
// Zero-valued series are dropped.
func (p *PerfProfile) add(name string, elapsed sim.Time, metrics map[string]float64, st sim.Stats) {
	metrics["northup_sim_events_total"] = float64(st.Events)
	metrics["northup_sim_callbacks_total"] = float64(st.Callbacks)
	metrics["northup_sim_procs_total"] = float64(st.Procs)
	maps.DeleteFunc(metrics, func(_ string, v float64) bool { return v == 0 })
	p.Apps = append(p.Apps, AppPerf{Name: name, ElapsedNS: int64(elapsed), Metrics: metrics})
}

// newPerfRuntime builds the gate's runtime: the SSD-rooted APU tree in
// phantom mode with the registry attached (the same topology Figure 7's
// SSD column measures).
func (o Options) newPerfRuntime(reg *obs.Registry) *core.Runtime {
	e := sim.NewEngine()
	opts := core.DefaultOptions()
	opts.Phantom = true
	opts.Metrics = reg
	tree := topo.APU(e, topo.APUConfig{
		Storage:    topo.SSD,
		StorageMiB: o.storageMiB(),
		DRAMMiB:    o.stageMiB(),
		WithCPU:    true,
	})
	return core.NewRuntime(e, tree, opts)
}

// JSON renders the profile as the committed baseline document.
func (p *PerfProfile) JSON() string {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("figures: marshaling perf profile: %v", err))
	}
	return string(data) + "\n"
}

// ParsePerfProfile reads a baseline document back.
func ParsePerfProfile(data []byte) (*PerfProfile, error) {
	var p PerfProfile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("figures: parsing perf baseline: %w", err)
	}
	if p.Schema != perfSchema {
		return nil, fmt.Errorf("figures: perf baseline schema %q, want %q", p.Schema, perfSchema)
	}
	return &p, nil
}

// String summarises the profile as a table (the Renderer contract).
func (p *PerfProfile) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "perf profile (scale %d): %d app(s)\n", p.Scale, len(p.Apps))
	fmt.Fprintf(&sb, "%-14s %14s %10s\n", "app", "virtual", "metrics")
	for _, a := range p.Apps {
		fmt.Fprintf(&sb, "%-14s %14v %10d\n", a.Name, sim.Time(a.ElapsedNS), len(a.Metrics))
	}
	return sb.String()
}

// CSV renders one row per app (the Renderer contract).
func (p *PerfProfile) CSV() string {
	var sb strings.Builder
	sb.WriteString("app,elapsed_ns,metrics\n")
	for _, a := range p.Apps {
		fmt.Fprintf(&sb, "%s,%d,%d\n", a.Name, a.ElapsedNS, len(a.Metrics))
	}
	return sb.String()
}
