package hotspot

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/gpu"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

func newMultiBranchRuntime(phantom bool, fast []bool, dramMiB int64) *core.Runtime {
	e := sim.NewEngine()
	drams := make([]int64, len(fast))
	for i := range drams {
		drams[i] = dramMiB
	}
	tree := topo.MultiBranch(e, topo.MultiBranchConfig{
		Storage: topo.SSD, StorageMiB: 512,
		BranchDRAMMiB: drams, FastBranches: fast,
	})
	opts := core.DefaultOptions()
	opts.Phantom = phantom
	return core.NewRuntime(e, tree, opts)
}

func TestMultiBranchMatchesReference(t *testing.T) {
	for _, policy := range []BranchPolicy{StaticPartition, DynamicQueue} {
		cfg := Config{N: 64, Seed: 8, ChunkDim: 16, Iters: 3, Policy: policy}
		rt := newMultiBranchRuntime(false, []bool{false, true}, 8)
		res, err := RunNorthup(rt, cfg)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		g := workload.HotSpotGrid(cfg.N, cfg.Seed)
		want, err := ReferenceBlocked(g.Temp, g.Power, cfg.N, cfg.ChunkDim, cfg.Iters)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(res.Temp, want) {
			t.Fatalf("%v: multi-branch result differs from blocked reference", policy)
		}
		total := 0
		for _, n := range res.ChunksByBranch {
			total += n
		}
		if total != 16 {
			t.Fatalf("%v: %d chunks processed, want 16", policy, total)
		}
	}
}

func TestDynamicQueueBalancesAsymmetricBranches(t *testing.T) {
	// One integrated-GPU branch, one discrete-GPU branch: the fast branch
	// must take more chunks under the dynamic policy, and the dynamic
	// policy must beat the static even split.
	cfg := Config{N: 4096, ChunkDim: 512, Iters: 30}
	run := func(policy BranchPolicy) *Result {
		cfg := cfg
		cfg.Policy = policy
		rt := newMultiBranchRuntime(true, []bool{false, true}, 16)
		res, err := RunNorthup(rt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static := run(StaticPartition)
	dynamic := run(DynamicQueue)
	if dynamic.ChunksByBranch[1] <= dynamic.ChunksByBranch[0] {
		t.Fatalf("fast branch took %d chunks, slow took %d",
			dynamic.ChunksByBranch[1], dynamic.ChunksByBranch[0])
	}
	if static.ChunksByBranch[0] != static.ChunksByBranch[1] {
		t.Fatalf("static partition uneven: %v", static.ChunksByBranch)
	}
	if dynamic.Stats.Elapsed >= static.Stats.Elapsed {
		t.Fatalf("dynamic (%v) not faster than static (%v) on asymmetric branches",
			dynamic.Stats.Elapsed, static.Stats.Elapsed)
	}
}

func TestMultiBranchSymmetricSplitsEvenly(t *testing.T) {
	cfg := Config{N: 1024, ChunkDim: 256, Iters: 8, Policy: DynamicQueue}
	rt := newMultiBranchRuntime(true, []bool{false, false}, 8)
	res, err := RunNorthup(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.ChunksByBranch[0], res.ChunksByBranch[1]
	if a+b != 16 {
		t.Fatalf("chunks = %d+%d", a, b)
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if diff > 4 {
		t.Fatalf("symmetric branches unbalanced: %d vs %d", a, b)
	}
}

func TestMultiBranchValidation(t *testing.T) {
	rt := newMultiBranchRuntime(true, []bool{false}, 8)
	if _, err := RunNorthup(rt, Config{N: 100, ChunkDim: 30}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestMultiBranchReachesGPUBelowBranch runs the committed asymmetric spec,
// whose nvm-b branch has its GPU one level down at hbm-b: chunks that land
// there must be staged into hbm-b and computed by its GPU, so both policies
// match the blocked reference and use both branches.
func TestMultiBranchReachesGPUBelowBranch(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "specs", "asymmetric.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := topo.ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.HotSpotGrid(256, 3)
	want, err := ReferenceBlocked(g.Temp, g.Power, 256, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []BranchPolicy{StaticPartition, DynamicQueue} {
		e := sim.NewEngine()
		tree, err := topo.BuildSpec(e, spec)
		if err != nil {
			t.Fatal(err)
		}
		rt := core.NewRuntime(e, tree, core.DefaultOptions())
		cfg := Config{N: 256, Seed: 3, ChunkDim: 64, Iters: 3, Policy: policy}
		res, err := RunNorthup(rt, cfg)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if !almostEqual(res.Temp, want) {
			t.Fatalf("%v: result differs from the blocked reference", policy)
		}
		for bi, n := range res.ChunksByBranch {
			if n == 0 {
				t.Fatalf("%v: branch %d took no chunks (%v)", policy, bi, res.ChunksByBranch)
			}
		}
	}
}

// TestMultiBranchReportsBranchFailure gives one branch too little memory
// to stage a single chunk: the run must fail with that branch's
// allocation error instead of returning a partial grid.
func TestMultiBranchReportsBranchFailure(t *testing.T) {
	e := sim.NewEngine()
	tree := topo.MultiBranch(e, topo.MultiBranchConfig{
		Storage: topo.SSD, StorageMiB: 512,
		BranchDRAMMiB: []int64{16, 1},
	})
	opts := core.DefaultOptions()
	opts.Phantom = true
	rt := core.NewRuntime(e, tree, opts)
	res, err := RunNorthup(rt, Config{N: 1024, ChunkDim: 512, Policy: StaticPartition})
	if err == nil {
		t.Fatalf("run with an unstageable branch succeeded (chunks by branch %v)", res.ChunksByBranch)
	}
	var capErr *device.ErrCapacity
	if !errors.As(err, &capErr) {
		t.Fatalf("error %q is not the branch's allocation failure", err)
	}
}

// gpuBusy sums the GPU-compute spans of a run per tree node.
type gpuBusy struct{ byNode map[int]sim.Time }

func (g *gpuBusy) Span(_ *sim.Proc, lane trace.Lane, cat trace.Category, _ string, start, end sim.Time, _ int64) {
	if cat == trace.GPUCompute {
		g.byNode[lane.Node] += end - start
	}
}

func (*gpuBusy) Instant(trace.Lane, string, sim.Time, int64) {}
func (*gpuBusy) Counter(trace.Lane, string, sim.Time, int64) {}

// TestAsymmetricTreeRunsEveryBranch runs the committed asymmetric spec
// through every HotSpot schedule that computes there: each must match the
// blocked reference, the W9100 one level below nvm-b must have computed
// chunks instead of idling while dram-a ran them all, and the root work
// queue must be detached once the run ends.
func TestAsymmetricTreeRunsEveryBranch(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "specs", "asymmetric.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := topo.ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	const n, d, iters, seed = 256, 64, 3, 3
	g := workload.HotSpotGrid(n, seed)
	want, err := ReferenceBlocked(g.Temp, g.Power, n, d, iters)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: n, Seed: seed, ChunkDim: d, Iters: iters}
	for _, tc := range []struct {
		name     string
		launches bool // the schedule launches kernels (the steal workers charge rows)
		run      func(rt *core.Runtime) ([]float32, error)
	}{
		{"northup", true, func(rt *core.Runtime) ([]float32, error) {
			r, err := RunNorthup(rt, cfg)
			if err != nil {
				return nil, err
			}
			return r.Temp, nil
		}},
		{"steal-gpu-only", false, func(rt *core.Runtime) ([]float32, error) {
			r, err := RunSteal(rt, StealConfig{M: n, ChunkDim: d, Seed: seed, Iters: iters, Mode: GPUOnly})
			if err != nil {
				return nil, err
			}
			return r.Temp, nil
		}},
		{"multibranch-static", true, func(rt *core.Runtime) ([]float32, error) {
			r, err := RunNorthup(rt, Config{N: n, Seed: seed, ChunkDim: d, Iters: iters, Policy: StaticPartition})
			if err != nil {
				return nil, err
			}
			return r.Temp, nil
		}},
		{"multibranch-dynamic", true, func(rt *core.Runtime) ([]float32, error) {
			r, err := RunNorthup(rt, Config{N: n, Seed: seed, ChunkDim: d, Iters: iters, Policy: DynamicQueue})
			if err != nil {
				return nil, err
			}
			return r.Temp, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine()
			tree, err := topo.BuildSpec(e, spec)
			if err != nil {
				t.Fatal(err)
			}
			rt := core.NewRuntime(e, tree, core.DefaultOptions())
			busy := &gpuBusy{byNode: map[int]sim.Time{}}
			rt.Subscribe(busy)
			temp, err := tc.run(rt)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(temp, want) {
				t.Fatal("result differs from the blocked reference")
			}
			hbm := tree.Root().Children[1].Children[0]
			if busy.byNode[hbm.ID] <= 0 {
				t.Fatalf("the GPU at %v computed nothing (GPU busy by node %v)", hbm, busy.byNode)
			}
			if _, kernels := hbm.Processor(proc.GPU).(*gpu.GPU).Stats(); tc.launches && kernels == 0 {
				t.Fatalf("no kernel ran on the GPU at %v", hbm)
			}
			if q := tree.Root().Queues; len(q) != 0 {
				t.Fatalf("%d root queue monitors left attached after the run", len(q))
			}
		})
	}
}

// TestStorageLeafRootRefused gives HotSpot a storage root that is itself
// the leaf: with no staging branch to run chunks through, every schedule
// must refuse the tree with an error.
func TestStorageLeafRootRefused(t *testing.T) {
	spec, err := topo.ParseSpec([]byte(`{"name": "leaf-root", "nodes": [{"name": "ssd",
		"device": "ssd", "capacity_mib": 64, "procs": ["apu-gpu", "cpu"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	tree, err := topo.BuildSpec(e, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunNorthup(core.NewRuntime(e, tree, core.DefaultOptions()), Config{N: 64, ChunkDim: 32, Iters: 1}); err == nil {
		t.Fatal("a root with no staging branch was accepted")
	}
}

// newAsymmetricRuntime builds the committed asymmetric spec in phantom
// mode: dram-a computes with its own GPU and CPU, nvm-b through the GPU one
// level down at hbm-b, which has no CPU.
func newAsymmetricRuntime(t *testing.T) *core.Runtime {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "specs", "asymmetric.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := topo.ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	tree, err := topo.BuildSpec(e, spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Phantom = true
	return core.NewRuntime(e, tree, opts)
}

// TestDerivedChunksUseEveryBranch leaves the blocking to runChunked on the
// asymmetric spec. The whole 1024-wide grid fits dram-a as one chunk, which
// would leave nvm-b idle; the derived blocking must cut at least one chunk
// per branch, so both GPUs compute.
func TestDerivedChunksUseEveryBranch(t *testing.T) {
	rt := newAsymmetricRuntime(t)
	busy := &gpuBusy{byNode: map[int]sim.Time{}}
	rt.Subscribe(busy)
	res, err := RunNorthup(rt, Config{N: 1024, Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunkDim != 512 {
		t.Fatalf("derived chunk %d, want 512 (the largest that gives both branches a chunk)", res.ChunkDim)
	}
	root := rt.Tree().Root()
	for _, leaf := range []*topo.Node{root.Children[0], root.Children[1].Children[0]} {
		if busy.byNode[leaf.ID] <= 0 {
			t.Fatalf("the GPU at %v computed nothing (GPU busy by node %v)", leaf, busy.byNode)
		}
	}
}

// TestStealDerivedChunksUseEveryBranch leaves RunSteal's blocking to
// runChunked. On a tree of two CPU+GPU branches the whole 1024-wide grid
// fits one branch as one chunk, which would leave the other idle; the
// derived chunk must give each branch one, so both branches' GPUs compute.
// On the single-branch APU it must stay the whole grid, the chunk a run
// without one took before, and a negative chunk is refused.
func TestStealDerivedChunksUseEveryBranch(t *testing.T) {
	spec, err := topo.ParseSpec([]byte(`{"name": "two-apus", "nodes": [
		{"name": "ssd", "device": "ssd", "capacity_mib": 512},
		{"name": "dram-a", "parent": "ssd", "device": "dram", "capacity_mib": 2048, "procs": ["apu-gpu", "cpu"]},
		{"name": "dram-b", "parent": "ssd", "device": "dram", "capacity_mib": 2048, "procs": ["apu-gpu", "cpu"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	tree, err := topo.BuildSpec(e, spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Phantom = true
	rt := core.NewRuntime(e, tree, opts)
	busy := &gpuBusy{byNode: map[int]sim.Time{}}
	rt.Subscribe(busy)
	res, err := RunSteal(rt, StealConfig{M: 1024, Iters: 3, Mode: CPUGPU})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunkDim != 512 {
		t.Fatalf("derived chunk %d, want 512 (the largest that gives both branches a chunk)", res.ChunkDim)
	}
	for _, dram := range tree.Root().Children {
		if busy.byNode[dram.ID] <= 0 {
			t.Fatalf("the GPU at %v computed nothing (GPU busy by node %v)", dram, busy.byNode)
		}
	}

	one, err := RunSteal(newStealRuntime(true, true), StealConfig{M: 512, Iters: 3, Mode: CPUGPU})
	if err != nil {
		t.Fatal(err)
	}
	if one.ChunkDim != 512 {
		t.Fatalf("single branch derived chunk %d, want the whole 512-wide grid", one.ChunkDim)
	}
	if _, err := RunSteal(newStealRuntime(true, true), StealConfig{M: 512, ChunkDim: -256}); err == nil {
		t.Fatal("negative chunk accepted")
	}
}

// TestMissingLeafProcessorRefusedUpFront runs the schedules that need a CPU
// beside the GPU on the asymmetric spec, whose hbm-b leaf has none: each
// must refuse the tree naming hbm-b before anything is staged, however the
// grid is cut and wherever its chunks would land.
func TestMissingLeafProcessorRefusedUpFront(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(rt *core.Runtime) error
	}{
		{"steal-one-chunk", func(rt *core.Runtime) error {
			_, err := RunSteal(rt, StealConfig{M: 1024, ChunkDim: 1024, Iters: 3, Mode: CPUGPU})
			return err
		}},
		{"steal-16-chunks", func(rt *core.Runtime) error {
			_, err := RunSteal(rt, StealConfig{M: 1024, ChunkDim: 256, Iters: 3, Mode: CPUGPU})
			return err
		}},
		{"profiled", func(rt *core.Runtime) error {
			_, err := RunProfiled(rt, Config{N: 1024, Iters: 3})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newAsymmetricRuntime(t)
			hbm := rt.Tree().Root().Children[1].Children[0]
			err := tc.run(rt)
			if err == nil || !strings.Contains(err.Error(), "needs a CPU at the leaf "+hbm.String()) {
				t.Fatalf("error %v does not refuse the CPU-less leaf %v", err, hbm)
			}
			if now := rt.Engine().Now(); now != 0 {
				t.Fatalf("refused at %v, after chunks had run", now)
			}
		})
	}
}
