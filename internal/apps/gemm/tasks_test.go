package gemm

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/fault"
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
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64, DRAMMiB: 1})
	opts := core.DefaultOptions()
	opts.Phantom = phantom
	opts.Metrics = obs.NewRegistry()
	if cacheBytes > 0 {
		opts.Cache.Enabled = true
		opts.Cache.CapacityBytes = cacheBytes
	}
	return core.NewRuntime(e, tree, opts), opts.Metrics
}

// movedBytes sums the per-node northup_moved_bytes_total series.
func movedBytes(reg *obs.Registry) float64 {
	total := 0.0
	for name, v := range reg.Flatten() {
		if strings.HasPrefix(name, "northup_moved_bytes_total") {
			total += v
		}
	}
	return total
}

func TestTasksMatchReference(t *testing.T) {
	cfg := Config{N: 256, Seed: 11}
	want := make([]float32, cfg.N*cfg.N)
	Reference(want, workload.Dense(cfg.N, cfg.N, cfg.Seed),
		workload.Dense(cfg.N, cfg.N, cfg.Seed+1), cfg.N, cfg.N, cfg.N)
	for _, affinity := range []bool{false, true} {
		rt, _ := newTaskRuntime(false, 256<<10)
		res, st, err := RunTasks(rt, cfg, taskgraph.Options{Affinity: affinity})
		if err != nil {
			t.Fatalf("affinity=%v: %v", affinity, err)
		}
		if !almostEqual(res.C, want, cfg.N) {
			t.Fatalf("affinity=%v: task-mode result differs from reference", affinity)
		}
		cb := cfg.N / res.ShardDim
		if st.Tasks != cb*cb {
			t.Fatalf("affinity=%v: %d tasks for a %dx%d grid", affinity, st.Tasks, cb, cb)
		}
	}
}

func TestTasksAffinityDeterministic(t *testing.T) {
	// Repeated affinity-on runs must produce bit-identical schedules:
	// identical virtual time, identical placement statistics.
	f := func(seed int64) bool {
		cfg := Config{N: 256, Seed: seed}
		run := func() (sim.Time, int64) {
			rt, _ := newTaskRuntime(true, 256<<10)
			res, st, err := RunTasks(rt, cfg, taskgraph.Options{Affinity: true})
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats.Elapsed, st.SavedBytes
		}
		e1, s1 := run()
		e2, s2 := run()
		return e1 == e2 && s1 == s2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestNorthupRepeatsBitForBit(t *testing.T) {
	// The recursive schedule is deterministic: for any seed, repeated runs
	// on fresh engines reproduce it bit for bit (identical virtual time and
	// moved bytes). It is a different schedule from RunTasks with affinity
	// off, so this compares RunNorthup only with itself.
	f := func(seed int64) bool {
		cfg := Config{N: 128, Seed: seed}
		run := func() (sim.Time, float64) {
			rt, reg := newTaskRuntime(true, 0)
			res, err := RunNorthup(rt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats.Elapsed, movedBytes(reg)
		}
		e1, m1 := run()
		e2, m2 := run()
		return e1 == e2 && m1 == m2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestTasksAffinityDeterministicUnderFaults(t *testing.T) {
	// Affinity-on placement must stay deterministic with the staging cache
	// on and the fault injector perturbing transfers: equal fault seeds
	// give bit-identical schedules (virtual time, saved bytes, moved bytes)
	// even though retries and delays reshuffle the timing the scorer sees.
	f := func(faultSeed int64) bool {
		cfg := Config{N: 256, Seed: 11, ShardDim: 32}
		run := func() (sim.Time, int64, float64) {
			e := sim.NewEngine()
			tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64, DRAMMiB: 1})
			opts := core.DefaultOptions()
			opts.Phantom = true
			opts.Metrics = obs.NewRegistry()
			opts.Cache.Enabled = true
			opts.Cache.CapacityBytes = 256 << 10
			opts.Faults = fault.New(e, fault.Config{Seed: faultSeed,
				TransferFailRate: 0.05, TransferDelayRate: 0.2})
			rt := core.NewRuntime(e, tree, opts)
			res, st, err := RunTasks(rt, cfg, taskgraph.Options{Affinity: true})
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats.Elapsed, st.SavedBytes, movedBytes(opts.Metrics)
		}
		e1, s1, m1 := run()
		e2, s2, m2 := run()
		return e1 == e2 && s1 == s2 && m1 == m2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestTasksAffinityReducesMovedBytes(t *testing.T) {
	// The A/B direction the ablation figure reports: with a cache smaller
	// than the distinct shard working set, residency-aware placement re-reads
	// less from storage than locality-blind stealing.
	cfg := Config{N: 256, Seed: 11, ShardDim: 32}
	run := func(affinity bool) (float64, int64) {
		rt, reg := newTaskRuntime(true, 256<<10)
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
