package figures

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps/gemm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/taskgraph"
	"repro/internal/topo"
)

// The perf-regression gate: the three case-study applications run
// out-of-core on the SSD tree in phantom mode with the metrics registry
// attached, and the full metric profile — virtual latency, per-category
// busy time, span counts, moved bytes, cache and scheduler counters — is
// captured as a PerfProfile. `northup-bench -baseline` writes the profile
// to BENCH_perf.json; `northup-bench -check` re-runs the suite at the
// baseline's scale and diffs the two profiles with per-metric tolerances,
// exiting non-zero on regression. Because the simulation is deterministic,
// an unchanged runtime reproduces the baseline bit for bit; the tolerances
// exist to absorb intentional small reworks, not noise.

// perfSchema versions the baseline document.
const perfSchema = "northup-perf/v1"

// perfRelTol is the default relative tolerance: a metric moving more than
// 5% from the baseline (in either direction) fails the check, well under
// the ≥10% regressions the gate must catch.
const perfRelTol = 0.05

// Absolute floors per metric family, so tiny counts (a queue that saw 12
// steals) don't fail on ±1 jitters that a relative tolerance would flag.
const (
	perfFloorNS    = 1e6     // time metrics: 1ms of virtual time
	perfFloorBytes = 1 << 20 // byte metrics: 1 MiB
	perfFloorCount = 8       // everything else: 8 events
)

// AppPerf is one application's profile.
type AppPerf struct {
	// Name is the App's display name (dense-mm, hotspot-2d, csr-adaptive).
	Name string `json:"name"`
	// ElapsedNS is the run's virtual makespan in nanoseconds.
	ElapsedNS int64 `json:"elapsed_ns"`
	// Metrics is the flattened metrics registry at end of run (counter
	// totals, gauge values, histogram buckets — see obs.Registry.Flatten).
	Metrics map[string]float64 `json:"metrics"`
}

// PerfProfile is the machine-readable perf baseline (BENCH_perf.json).
type PerfProfile struct {
	Schema string `json:"schema"`
	// Scale is the figures scale the suite ran at; -check re-runs at the
	// same scale regardless of its own -scale flag.
	Scale int       `json:"scale"`
	Apps  []AppPerf `json:"apps"`
	// Tolerances overrides the default per-metric tolerance: keys are
	// metric names (exact, or a prefix — longest match wins), values are
	// relative tolerances (0.10 = ±10%). Committed alongside the baseline
	// so known-noisy metrics can be widened without code changes.
	Tolerances map[string]float64 `json:"tolerances,omitempty"`
	// Floors marks wall-clock metrics (dispatch rates, speedups) that are
	// checked one-sided instead of diffed against the baseline value: the
	// run fails only when the metric drops below the committed floor. Keys
	// follow the same exact-or-longest-prefix rule as Tolerances.
	Floors map[string]float64 `json:"floors,omitempty"`
}

// PerfSuite runs the three applications on the SSD tree with metrics
// attached and returns the profile.
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
		prof.Apps = append(prof.Apps, AppPerf{
			Name:      app.String(),
			ElapsedNS: int64(stats.Elapsed),
			Metrics:   reg.Flatten(),
		})
	}
	// Fourth entry: the adaptive streamed GEMM shard on the discrete tree
	// (the `stream` figure's workload), so a lost hop overlap — slower
	// makespan, fewer sub-chunks, shrunken in-flight peak — fails the gate.
	reg := obs.NewRegistry()
	payload := int64(o.denseN()/2) * streamShardCols * 4
	elapsed, _, _, err := o.runStreamedShard(payload, 0, reg)
	if err != nil {
		return nil, fmt.Errorf("figures: perf suite: stream-overlap: %w", err)
	}
	prof.Apps = append(prof.Apps, AppPerf{
		Name:      "stream-overlap",
		ElapsedNS: int64(elapsed),
		Metrics:   reg.Flatten(),
	})
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
	prof.Apps = append(prof.Apps, AppPerf{
		Name:      "serve-mix",
		ElapsedNS: srvRep.ElapsedNS,
		Metrics:   srvEng.MergedRegistry().Flatten(),
	})
	// Sixth entry: the DES engine's own dispatch speed on the paper-scale
	// event mix, so a scheduling regression — a slower heap, a lost batch
	// path, callbacks falling back to process resumptions — fails the gate
	// even when the virtual-time results it produces are still correct.
	simPerf, floors, err := simEnginePerf(o)
	if err != nil {
		return nil, fmt.Errorf("figures: perf suite: sim-engine: %w", err)
	}
	prof.Apps = append(prof.Apps, simPerf)
	// Seventh entry: the affinity ablation's GEMM task graph under
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
	prof.Apps = append(prof.Apps, AppPerf{
		Name:      "affinity",
		ElapsedNS: int64(affRes.Stats.Elapsed),
		Metrics:   affMetrics,
	})
	// Per-hop bandwidth is a last-value gauge: the final sub-chunk's size
	// (and so its instantaneous rate) shifts with any resizing rework even
	// when the pipeline is healthy, so it gets a wider band than the
	// totals the gate is really guarding. Saved bytes is the affinity
	// scorer's own residency estimate — it shifts with any cache-sizing or
	// eviction rework while the moved-bytes totals it predicts stay tight,
	// so it too gets the wider band.
	prof.Tolerances = map[string]float64{
		"northup_stream_hop_bw":                 0.10,
		"northup_sched_moved_bytes_saved_total": 0.10,
	}
	prof.Floors = floors
	return prof, nil
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
	if p.Scale == 0 {
		p.Scale = 1
	}
	return &p, nil
}

// PerfDelta is one metric's deviation from the baseline.
type PerfDelta struct {
	App    string
	Metric string
	// Base is the baseline value, or the committed floor for floor-gated
	// metrics.
	Base float64
	Got  float64
	// Rel is (got-base)/base, 0 when base is 0.
	Rel float64
	// Tol is the relative tolerance that applied (0 for floor checks).
	Tol float64
	// Floor marks a one-sided floor failure: got fell below Base.
	Floor bool
}

// slower reports whether the deviation is in the regression direction
// (time or work increased, or a rate fell below its floor).
func (d PerfDelta) slower() bool {
	if d.Floor {
		return true
	}
	return d.Got > d.Base
}

// String renders one deviation line.
func (d PerfDelta) String() string {
	if d.Floor {
		return fmt.Sprintf("%-12s %-48s floor %.4g -> got %.4g (%+.1f%%, BELOW FLOOR)",
			d.App, d.Metric, d.Base, d.Got, 100*d.Rel)
	}
	dir := "faster/less"
	if d.slower() {
		dir = "SLOWER/more"
	}
	return fmt.Sprintf("%-12s %-48s base %.4g -> got %.4g (%+.1f%%, tol ±%.0f%%, %s)",
		d.App, d.Metric, d.Base, d.Got, 100*d.Rel, 100*d.Tol, dir)
}

// PerfCheck is the outcome of diffing a run against the baseline.
type PerfCheck struct {
	// Failures are deviations outside tolerance, worst first.
	Failures []PerfDelta
	// Compared counts metric comparisons made.
	Compared int
	// Missing lists baseline metrics absent from the run (renamed or
	// removed instruments — a baseline refresh is needed).
	Missing []string
}

// OK reports whether the run is within tolerance of the baseline.
func (c *PerfCheck) OK() bool { return len(c.Failures) == 0 && len(c.Missing) == 0 }

// Report renders the check for humans.
func (c *PerfCheck) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "perf check: %d metric(s) compared, %d outside tolerance, %d missing\n",
		c.Compared, len(c.Failures), len(c.Missing))
	for _, d := range c.Failures {
		fmt.Fprintf(&sb, "  FAIL %s\n", d)
	}
	for _, name := range c.Missing {
		fmt.Fprintf(&sb, "  MISSING %s (refresh the baseline with -baseline)\n", name)
	}
	if c.OK() {
		sb.WriteString("  within tolerance of the committed baseline\n")
	}
	return sb.String()
}

// tolFor resolves the relative tolerance for a metric: exact name in the
// baseline's Tolerances, else the longest prefix entry, else the default.
func (p *PerfProfile) tolFor(name string) float64 {
	if t, ok := p.Tolerances[name]; ok {
		return t
	}
	best, bestLen := perfRelTol, -1
	for prefix, t := range p.Tolerances {
		if len(prefix) > bestLen && strings.HasPrefix(name, prefix) {
			best, bestLen = t, len(prefix)
		}
	}
	return best
}

// floorOverrideFor resolves a one-sided floor for a metric (exact name,
// else longest prefix), reporting whether one applies.
func (p *PerfProfile) floorOverrideFor(name string) (float64, bool) {
	if f, ok := p.Floors[name]; ok {
		return f, true
	}
	best, bestLen, found := 0.0, -1, false
	for prefix, f := range p.Floors {
		if len(prefix) > bestLen && strings.HasPrefix(name, prefix) {
			best, bestLen, found = f, len(prefix), true
		}
	}
	return best, found
}

// floorFor returns the absolute deviation floor for a metric name, keyed
// off the unit suffixes the registry uses.
func floorFor(name string) float64 {
	base := name
	if i := strings.IndexByte(base, '{'); i >= 0 {
		base = base[:i]
	}
	switch {
	case strings.Contains(base, "_ns") || strings.HasSuffix(base, "elapsed_ns"):
		return perfFloorNS
	case strings.Contains(base, "_bytes"):
		return perfFloorBytes
	default:
		return perfFloorCount
	}
}

// Check diffs got against the baseline p. Every metric present in the
// baseline is compared two-sided: |got-base| must stay within
// max(tol×|base|, floor). Deviations in both directions fail — an
// unexplained speedup is a model change the baseline should record, not a
// pass — with the slower direction sorted first.
func (p *PerfProfile) Check(got *PerfProfile) *PerfCheck {
	c := &PerfCheck{}
	gotApps := map[string]AppPerf{}
	for _, a := range got.Apps {
		gotApps[a.Name] = a
	}
	for _, base := range p.Apps {
		run, ok := gotApps[base.Name]
		if !ok {
			c.Missing = append(c.Missing, base.Name+" (entire app)")
			continue
		}
		// The makespan first: the latency half of the gate.
		c.compare(p, base.Name, "elapsed_ns", float64(base.ElapsedNS), float64(run.ElapsedNS))
		names := make([]string, 0, len(base.Metrics))
		for name := range base.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			gv, ok := run.Metrics[name]
			if !ok {
				c.Missing = append(c.Missing, base.Name+": "+name)
				continue
			}
			c.compare(p, base.Name, name, base.Metrics[name], gv)
		}
	}
	sort.SliceStable(c.Failures, func(i, j int) bool {
		si, sj := c.Failures[i].slower(), c.Failures[j].slower()
		if si != sj {
			return si
		}
		return abs(c.Failures[i].Rel) > abs(c.Failures[j].Rel)
	})
	return c
}

// compare applies the tolerance rule to one metric pair. Floor-gated
// metrics (wall-clock rates) are checked one-sided against the committed
// floor instead of diffed against the baseline value.
func (c *PerfCheck) compare(p *PerfProfile, app, name string, base, got float64) {
	c.Compared++
	if floor, ok := p.floorOverrideFor(name); ok {
		if got >= floor {
			return
		}
		rel := 0.0
		if floor != 0 {
			rel = (got - floor) / floor
		}
		c.Failures = append(c.Failures, PerfDelta{App: app, Metric: name,
			Base: floor, Got: got, Rel: rel, Floor: true})
		return
	}
	tol := p.tolFor(name)
	dev := abs(got - base)
	limit := tol * abs(base)
	if floor := floorFor(name); limit < floor {
		limit = floor
	}
	if dev <= limit {
		return
	}
	rel := 0.0
	if base != 0 {
		rel = (got - base) / base
	}
	c.Failures = append(c.Failures, PerfDelta{App: app, Metric: name,
		Base: base, Got: got, Rel: rel, Tol: tol})
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
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
