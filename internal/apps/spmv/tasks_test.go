package spmv

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/taskgraph"
	"repro/internal/topo"
	"repro/internal/workload"
)

// newTaskRuntime builds the out-of-core APU runtime with the staging cache
// sized to cacheBytes and a metrics registry attached.
func newTaskRuntime(phantom bool, cacheBytes int64) (*core.Runtime, *obs.Registry) {
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64, DRAMMiB: 4, WithCPU: true})
	opts := core.DefaultOptions()
	opts.Phantom = phantom
	opts.Metrics = obs.NewRegistry()
	if cacheBytes > 0 {
		opts.Cache.Enabled = true
		opts.Cache.CapacityBytes = cacheBytes
	}
	return core.NewRuntime(e, tree, opts), opts.Metrics
}

func movedBytes(reg *obs.Registry) float64 {
	total := 0.0
	for name, v := range reg.Flatten() {
		if strings.HasPrefix(name, "northup_moved_bytes_total") {
			total += v
		}
	}
	return total
}

func TestTasksMatchNorthup(t *testing.T) {
	cfg := Config{N: 4096, AvgNNZ: 16, Kind: workload.SparseUniform, Seed: 7, Iters: 3}
	refRT, _ := newTaskRuntime(false, 0)
	ref, err := RunNorthup(refRT, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, affinity := range []bool{false, true} {
		rt, _ := newTaskRuntime(false, 512<<10)
		res, st, err := RunTasks(rt, cfg, taskgraph.Options{Affinity: affinity})
		if err != nil {
			t.Fatalf("affinity=%v: %v", affinity, err)
		}
		if len(res.Y) != len(ref.Y) {
			t.Fatalf("affinity=%v: |Y|=%d want %d", affinity, len(res.Y), len(ref.Y))
		}
		for i := range ref.Y {
			if res.Y[i] != ref.Y[i] {
				t.Fatalf("affinity=%v: Y[%d]=%g, northup %g", affinity, i, res.Y[i], ref.Y[i])
			}
		}
		// One shard task per (iteration, shard) plus one normalize per
		// non-final iteration.
		want := res.Shards*cfg.Iters + cfg.Iters - 1
		if st.Tasks != want {
			t.Fatalf("affinity=%v: %d tasks, want %d", affinity, st.Tasks, want)
		}
	}
}

func TestTasksAffinityDeterministic(t *testing.T) {
	cfg := Config{N: 4096, AvgNNZ: 16, Kind: workload.SparsePowerLaw, Seed: 3, Iters: 2}
	run := func() (sim.Time, int64) {
		rt, _ := newTaskRuntime(true, 512<<10)
		res, st, err := RunTasks(rt, cfg, taskgraph.Options{Affinity: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Elapsed, st.SavedBytes
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 || s1 != s2 {
		t.Fatalf("affinity schedule not deterministic: %v/%d vs %v/%d", e1, s1, e2, s2)
	}
}

func TestTasksAffinityReducesMovedBytes(t *testing.T) {
	// Power iteration re-reads every matrix extent each pass. With a cache
	// holding only part of the matrix, the stealing baseline streams the
	// passes in the order that just evicted the head shards; affinity starts
	// each pass from the shards still resident.
	cfg := Config{N: 8192, AvgNNZ: 16, Kind: workload.SparseUniform, Seed: 7, Iters: 3, Chunks: 16}
	run := func(affinity bool) (float64, int64) {
		rt, reg := newTaskRuntime(true, 512<<10)
		_, st, err := RunTasks(rt, cfg, taskgraph.Options{Affinity: affinity})
		if err != nil {
			t.Fatal(err)
		}
		return movedBytes(reg), st.SavedBytes
	}
	base, baseSaved := run(false)
	aff, affSaved := run(true)
	if baseSaved != 0 {
		t.Fatalf("stealing baseline claimed %d saved bytes", baseSaved)
	}
	if affSaved <= 0 {
		t.Fatal("affinity placement found no resident bytes")
	}
	if aff >= base {
		t.Fatalf("affinity moved %.0f bytes, baseline %.0f — no reduction", aff, base)
	}
}

func TestTasksCacheHitSurvivesRivalFill(t *testing.T) {
	// A 2 MiB cache under 16 MiB of staging DRAM makes the workers' fills
	// evict one another's entries. A hit that charged its bookkeeping
	// before pinning its entry let a rival fill evict and release the
	// buffer in between, and the shard kernel then read an empty column
	// array.
	cfg := Config{N: 65536, AvgNNZ: 16, Kind: workload.SparseUniform, Seed: 1, Iters: 3}
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 1024, DRAMMiB: 16, WithCPU: true})
	opts := core.DefaultOptions()
	opts.Cache.Enabled = true
	opts.Cache.CapacityBytes = 2 << 20
	rt := core.NewRuntime(e, tree, opts)
	res, _, err := RunTasks(rt, cfg, taskgraph.Options{Affinity: true})
	if err != nil {
		t.Fatal(err)
	}
	if cs := rt.CacheStats(); cs.Hits == 0 || cs.Evictions == 0 {
		t.Fatalf("no hit raced an eviction: %d hits, %d evictions", cs.Hits, cs.Evictions)
	}
	m := workload.Sparse(cfg.Kind, cfg.N, cfg.AvgNNZ, cfg.Seed)
	want := hostPowerIteration(m, workload.Vector(cfg.N, cfg.Seed+1), cfg.Iters)
	if !almostEqual(res.Y, want, float64(cfg.AvgNNZ*cfg.Iters)) {
		t.Fatal("cached affinity power iteration differs from host oracle")
	}
}

// TestTasksRefuseDepth: the task graph sizes its shards for the worker
// pool, so a pipeline depth is refused by name rather than ignored.
func TestTasksRefuseDepth(t *testing.T) {
	rt, _ := newTaskRuntime(true, 0)
	cfg := Config{N: 4096, AvgNNZ: 16, Kind: workload.SparseUniform, Seed: 7, Depth: 4}
	_, _, err := RunTasks(rt, cfg, taskgraph.Options{Affinity: true})
	if err == nil || !strings.Contains(err.Error(), "Config.Depth") {
		t.Fatalf("err = %v, want a refusal naming Config.Depth", err)
	}
}
