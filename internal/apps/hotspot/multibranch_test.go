package hotspot

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/topo"
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
		cfg := MultiBranchConfig{N: 64, Seed: 8, ChunkDim: 16, Iters: 3, Policy: policy}
		rt := newMultiBranchRuntime(false, []bool{false, true}, 8)
		res, err := RunMultiBranch(rt, cfg)
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
	cfg := MultiBranchConfig{N: 4096, ChunkDim: 512, Iters: 30}
	run := func(policy BranchPolicy) *MultiBranchResult {
		cfg := cfg
		cfg.Policy = policy
		rt := newMultiBranchRuntime(true, []bool{false, true}, 16)
		res, err := RunMultiBranch(rt, cfg)
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
	cfg := MultiBranchConfig{N: 1024, ChunkDim: 256, Iters: 8, Policy: DynamicQueue}
	rt := newMultiBranchRuntime(true, []bool{false, false}, 8)
	res, err := RunMultiBranch(rt, cfg)
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
	if _, err := RunMultiBranch(rt, MultiBranchConfig{N: 100, ChunkDim: 30}); err == nil {
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
		cfg := MultiBranchConfig{N: 256, Seed: 3, ChunkDim: 64, Iters: 3, Policy: policy}
		res, err := RunMultiBranch(rt, cfg)
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
	res, err := RunMultiBranch(rt, MultiBranchConfig{N: 1024, ChunkDim: 512, Policy: StaticPartition})
	if err == nil {
		t.Fatalf("run with an unstageable branch succeeded (chunks by branch %v)", res.ChunksByBranch)
	}
	var capErr *device.ErrCapacity
	if !errors.As(err, &capErr) {
		t.Fatalf("error %q is not the branch's allocation failure", err)
	}
}
