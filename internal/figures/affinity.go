package figures

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/apps/gemm"
	"repro/internal/apps/spmv"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/taskgraph"
	"repro/internal/topo"
	"repro/internal/workload"
)

// The data-affinity scheduler ablation: GEMM and SpMV run as extent-declared
// task graphs twice on identical SSD trees — once under locality-blind work
// stealing, once under residency-aware affinity placement — and the figure
// reports bytes moved from storage, bytes the scorer found already resident,
// and the per-app moved-bytes reduction. The staging cache is sized to hold
// roughly half of each app's distinct shard set, the regime where placement
// order decides whether a re-read hits the cache or streams back in from
// storage.

const (
	// affinityDenseN is the GEMM input dimension at scale 1. The block grid
	// is fixed at affinityGrid x affinityGrid tasks, so the shard geometry
	// (and with it the ablation's shape) is scale-invariant.
	affinityDenseN = 2048
	affinityGrid   = 8
	// affinitySpmvRows is the sparse row count at scale 1; with the paper's
	// 16 nnz/row the matrix is re-read whole on every power iteration.
	affinitySpmvRows   = 65536
	affinitySpmvIters  = 3
	affinitySpmvChunks = 16
)

// affinityN returns the GEMM dimension at this scale.
func (o Options) affinityN() int { return affinityDenseN / o.Scale }

// affinityRows returns the SpMV row count at this scale.
func (o Options) affinityRows() int { return affinitySpmvRows / o.Scale }

// affinityGemmCache returns the GEMM sweep's cache capacity: the distinct
// A-row (or B-column) shard set is affinityGrid shards of n/affinityGrid * n
// floats each; the cache holds exactly one such set, half the combined
// working set.
func (o Options) affinityGemmCache() int64 {
	n := int64(o.affinityN())
	return n * n * 4
}

// affinitySpmvCache returns the SpMV sweep's cache capacity: half the
// matrix payload (col_id + data, 8 bytes per nonzero at 16 nnz/row).
func (o Options) affinitySpmvCache() int64 {
	return int64(o.affinityRows()) * paperSpmvNNZ * 8 / 2
}

// AffinityRow is one (application, policy) measurement.
type AffinityRow struct {
	// App is the application name (dense-mm, csr-adaptive).
	App string
	// Affinity is true for residency-aware placement, false for the
	// locality-blind stealing baseline.
	Affinity bool
	Elapsed  sim.Time
	// MovedBytes is the total northup_moved_bytes_total across nodes: every
	// byte a MoveData charged anywhere in the tree.
	MovedBytes float64
	// SavedBytes is the scheduler's own claim: bytes of task extents found
	// resident at placement time (always 0 for the stealing baseline).
	SavedBytes int64
	// Tasks, Picks count executed tasks and placement decisions (affinity
	// picks, or pops+steals for the baseline).
	Tasks int
	Picks int64
}

// AffinityResult carries the A/B sweep.
type AffinityResult struct {
	Rows []AffinityRow
}

// Reduction returns 1 - affinity/baseline moved bytes for the app, the
// figure's headline number (positive when affinity moves less data).
func (r *AffinityResult) Reduction(app string) float64 {
	var base, aff float64
	for _, row := range r.Rows {
		if row.App != app {
			continue
		}
		if row.Affinity {
			aff = row.MovedBytes
		} else {
			base = row.MovedBytes
		}
	}
	if base == 0 {
		return 0
	}
	return 1 - aff/base
}

// newAffinityRuntime builds one sweep runtime: the SSD APU tree in phantom
// mode with the staging cache at the given capacity and metrics attached.
func (o Options) newAffinityRuntime(reg *obs.Registry, cacheBytes int64) *core.Runtime {
	e := sim.NewEngine()
	opts := core.DefaultOptions()
	opts.Phantom = true
	opts.Metrics = reg
	opts.Cache = core.CacheOptions{Enabled: true, CapacityBytes: cacheBytes}
	tree := topo.APU(e, topo.APUConfig{
		Storage:    topo.SSD,
		StorageMiB: o.storageMiB(),
		DRAMMiB:    o.stageMiB(),
		WithCPU:    true,
	})
	return core.NewRuntime(e, tree, opts)
}

// sumMovedBytes totals the per-node northup_moved_bytes_total series.
func sumMovedBytes(reg *obs.Registry) float64 {
	total := 0.0
	for name, v := range reg.Flatten() {
		if strings.HasPrefix(name, "northup_moved_bytes_total") {
			total += v
		}
	}
	return total
}

// affinityGemmConfig is the GEMM task-graph workload of the sweep.
func (o Options) affinityGemmConfig() gemm.Config {
	n := o.affinityN()
	return gemm.Config{N: n, Seed: 1, ShardDim: n / affinityGrid}
}

// affinitySpmvConfig is the SpMV task-graph workload of the sweep.
func (o Options) affinitySpmvConfig() spmv.Config {
	return spmv.Config{
		N:      o.affinityRows(),
		AvgNNZ: paperSpmvNNZ,
		Kind:   workload.SparseUniform,
		Seed:   7,
		Iters:  affinitySpmvIters,
		Chunks: affinitySpmvChunks,
	}
}

// runAffinityGemm executes the GEMM workload under one policy.
func (o Options) runAffinityGemm(affinity bool) (AffinityRow, error) {
	reg := obs.NewRegistry()
	rt := o.newAffinityRuntime(reg, o.affinityGemmCache())
	res, st, err := gemm.RunTasks(rt, o.affinityGemmConfig(), taskgraph.Options{Affinity: affinity})
	if err != nil {
		return AffinityRow{}, fmt.Errorf("figures: affinity ablation: gemm: %w", err)
	}
	picks := st.AffinityPicks
	if !affinity {
		picks = st.Pops + st.Steals
	}
	return AffinityRow{App: GEMM.String(), Affinity: affinity, Elapsed: res.Stats.Elapsed,
		MovedBytes: sumMovedBytes(reg), SavedBytes: st.SavedBytes,
		Tasks: st.Tasks, Picks: picks}, nil
}

// runAffinitySpmv executes the SpMV workload under one policy.
func (o Options) runAffinitySpmv(affinity bool) (AffinityRow, error) {
	reg := obs.NewRegistry()
	rt := o.newAffinityRuntime(reg, o.affinitySpmvCache())
	res, st, err := spmv.RunTasks(rt, o.affinitySpmvConfig(), taskgraph.Options{Affinity: affinity})
	if err != nil {
		return AffinityRow{}, fmt.Errorf("figures: affinity ablation: spmv: %w", err)
	}
	picks := st.AffinityPicks
	if !affinity {
		picks = st.Pops + st.Steals
	}
	return AffinityRow{App: SpMV.String(), Affinity: affinity, Elapsed: res.Stats.Elapsed,
		MovedBytes: sumMovedBytes(reg), SavedBytes: st.SavedBytes,
		Tasks: st.Tasks, Picks: picks}, nil
}

// AffinityAblation runs the A/B sweep: both applications under both
// placement policies on identical trees.
func AffinityAblation(o Options) (*AffinityResult, error) {
	o, err := o.norm()
	if err != nil {
		return nil, err
	}
	res := &AffinityResult{}
	for _, affinity := range []bool{false, true} {
		row, err := o.runAffinityGemm(affinity)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	for _, affinity := range []bool{false, true} {
		row, err := o.runAffinitySpmv(affinity)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// policyName names a row's placement policy.
func policyName(affinity bool) string {
	if affinity {
		return "affinity"
	}
	return "stealing"
}

// String renders the sweep as a table.
func (r *AffinityResult) String() string {
	var sb strings.Builder
	sb.WriteString("Data-affinity scheduler ablation: task graphs, stealing vs residency-aware placement\n")
	fmt.Fprintf(&sb, "  %-14s %-9s %12s %12s %12s %7s %12s\n",
		"app", "policy", "virtual-s", "moved-MiB", "saved-MiB", "tasks", "reduction")
	for _, row := range r.Rows {
		red := ""
		if row.Affinity {
			red = fmt.Sprintf("%.1f%%", 100*r.Reduction(row.App))
		}
		fmt.Fprintf(&sb, "  %-14s %-9s %12.3f %12.2f %12.2f %7d %12s\n",
			row.App, policyName(row.Affinity), row.Elapsed.Seconds(),
			row.MovedBytes/(1<<20), float64(row.SavedBytes)/(1<<20), row.Tasks, red)
	}
	return sb.String()
}

// CSV renders one row per (app, policy) point.
func (r *AffinityResult) CSV() string {
	var sb strings.Builder
	sb.WriteString("app,policy,virtual_s,moved_bytes,saved_bytes,tasks,picks,reduction\n")
	for _, row := range r.Rows {
		red := 0.0
		if row.Affinity {
			red = r.Reduction(row.App)
		}
		fmt.Fprintf(&sb, "%s,%s,%.6f,%.0f,%d,%d,%d,%.4f\n",
			row.App, policyName(row.Affinity), row.Elapsed.Seconds(),
			row.MovedBytes, row.SavedBytes, row.Tasks, row.Picks, red)
	}
	return sb.String()
}

// affinityJSONRow is the machine-readable form of one sweep point, written
// to BENCH_affinity.json by the Makefile's bench-affinity target.
type affinityJSONRow struct {
	Name       string  `json:"name"`
	App        string  `json:"app"`
	Policy     string  `json:"policy"`
	VirtualS   float64 `json:"virtual_s"`
	MovedBytes float64 `json:"moved_bytes"`
	SavedBytes int64   `json:"saved_bytes"`
	Tasks      int     `json:"tasks"`
	Picks      int64   `json:"picks"`
	// Reduction is the moved-bytes reduction over the stealing baseline
	// (affinity rows only; 0 on baseline rows).
	Reduction float64 `json:"reduction"`
}

// JSON renders the sweep as a JSON array (one object per point).
func (r *AffinityResult) JSON() string {
	rows := make([]affinityJSONRow, 0, len(r.Rows))
	for _, row := range r.Rows {
		red := 0.0
		if row.Affinity {
			red = r.Reduction(row.App)
		}
		rows = append(rows, affinityJSONRow{
			Name:       row.App + "-" + policyName(row.Affinity),
			App:        row.App,
			Policy:     policyName(row.Affinity),
			VirtualS:   row.Elapsed.Seconds(),
			MovedBytes: row.MovedBytes,
			SavedBytes: row.SavedBytes,
			Tasks:      row.Tasks,
			Picks:      row.Picks,
			Reduction:  red,
		})
	}
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		panic(err) // plain structs cannot fail to marshal
	}
	return string(out) + "\n"
}

var _ Renderer = (*AffinityResult)(nil)
