package cluster

import (
	"testing"

	"repro/internal/apps/gemm"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// newCluster builds k identical APU machines on one engine.
func newCluster(t *testing.T, k int, phantom bool, storageMiB, dramMiB int64) *Cluster {
	t.Helper()
	e := sim.NewEngine()
	opts := core.DefaultOptions()
	opts.Phantom = phantom
	cl, err := New(e, k, DefaultFabric(), opts, func(e *sim.Engine, i int) *topo.Tree {
		return topo.APU(e, topo.APUConfig{Storage: topo.SSD,
			StorageMiB: storageMiB, DRAMMiB: dramMiB})
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestCollectivesMoveBytes(t *testing.T) {
	cl := newCluster(t, 3, false, 16, 2)
	const n = 3 * 1024
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	src, err := cl.Machine(0).RT.CreateInput(cl.Machine(0).Tree.Root(), "src", n, payload)
	if err != nil {
		t.Fatal(err)
	}
	dsts := make([]*core.Buffer, 3)
	for i := 0; i < 3; i++ {
		if dsts[i], err = cl.Machine(i).RT.CreateInput(cl.Machine(i).Tree.Root(), "dst", 1024, nil); err != nil {
			t.Fatal(err)
		}
	}
	gathered, err := cl.Machine(0).RT.CreateInput(cl.Machine(0).Tree.Root(), "gathered", n, nil)
	if err != nil {
		t.Fatal(err)
	}
	elapsed, err := cl.Run("coll", func(p *sim.Proc) error {
		if err := cl.Scatter(p, 0, src, dsts, 1024); err != nil {
			return err
		}
		return cl.Gather(p, 0, dsts, gathered, 1024)
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Fatal("collectives took no time")
	}
	got := make([]byte, n)
	if err := gathered.File().Peek(got, 0); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("scatter+gather corrupted byte %d", i)
		}
	}
	// Per-slice spot check: machine 1 received the middle slice.
	slice := make([]byte, 1024)
	if err := dsts[1].File().Peek(slice, 0); err != nil {
		t.Fatal(err)
	}
	if slice[0] != payload[1024] {
		t.Fatal("scatter slice misplaced")
	}
}

func TestDistributedGEMMMatchesReference(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		cl := newCluster(t, k, false, 64, 1)
		cfg := GEMMConfig{N: 256, Seed: 9}
		res, err := DistributedGEMM(cl, cfg)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		want := make([]float32, cfg.N*cfg.N)
		gemm.Reference(want, workload.Dense(cfg.N, cfg.N, cfg.Seed),
			workload.Dense(cfg.N, cfg.N, cfg.Seed+1), cfg.N, cfg.N, cfg.N)
		for i := range want {
			d := res.C[i] - want[i]
			if d > 0.05 || d < -0.05 {
				t.Fatalf("k=%d: distributed result differs from reference at %d", k, i)
			}
		}
		if res.ComputeTime <= 0 {
			t.Fatalf("k=%d: no compute span", k)
		}
		if k > 1 && res.DistributionTime <= 0 {
			t.Fatalf("k=%d: no distribution span", k)
		}
	}
}

func TestDistributedGEMMScales(t *testing.T) {
	// Strong scaling: more machines cut compute time, but broadcast of B
	// grows, so total speedup is sublinear — the classic communication
	// bound the paper's future-work direction would have to manage.
	run := func(k int) *GEMMResult {
		cl := newCluster(t, k, true, 8192, 512)
		res, err := DistributedGEMM(cl, GEMMConfig{N: 4096})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2, r4 := run(1), run(2), run(4)
	if !(r4.ComputeTime < r2.ComputeTime && r2.ComputeTime < r1.ComputeTime) {
		t.Fatalf("compute not scaling: %v %v %v",
			r1.ComputeTime, r2.ComputeTime, r4.ComputeTime)
	}
	if !(r4.Elapsed < r2.Elapsed && r2.Elapsed < r1.Elapsed) {
		t.Fatalf("total not improving: %v %v %v", r1.Elapsed, r2.Elapsed, r4.Elapsed)
	}
	ideal := float64(r1.Elapsed) / 4
	if float64(r4.Elapsed) <= ideal {
		t.Fatalf("4-machine run beat ideal scaling (%v <= %v): communication free?",
			r4.Elapsed, sim.Time(ideal))
	}
	if r4.DistributionTime <= r2.DistributionTime {
		t.Fatalf("broadcast cost did not grow with machines: %v vs %v",
			r4.DistributionTime, r2.DistributionTime)
	}
}

func TestFabricSlowerThanNVM(t *testing.T) {
	// §VI's premise, pinned as a property of the defaults: the network
	// link is slower than local NVM reads, so node-local staging wins.
	e := sim.NewEngine()
	nvmBW := topo.APUWithNVM(e, topo.NVMConfig{Storage: topo.SSD,
		StorageMiB: 16, NVMMiB: 8, DRAMMiB: 2}).Node(1).Mem.Profile().ReadBW
	if f := DefaultFabric(); f.BW >= nvmBW {
		t.Fatalf("fabric (%g B/s) not slower than NVM (%g B/s)", f.BW, nvmBW)
	}
}

func TestClusterValidation(t *testing.T) {
	e := sim.NewEngine()
	if _, err := New(e, 0, DefaultFabric(), core.DefaultOptions(), nil); err == nil {
		t.Fatal("zero machines accepted")
	}
	cl := newCluster(t, 2, true, 16, 2)
	if _, err := DistributedGEMM(cl, GEMMConfig{N: 100}); err == nil {
		t.Fatal("indivisible N accepted")
	}
}

func TestDistributedPhantomTimingMatchesFunctional(t *testing.T) {
	cfg := GEMMConfig{N: 256, Seed: 9}
	run := func(phantom bool) sim.Time {
		cl := newCluster(t, 2, phantom, 64, 1)
		res, err := DistributedGEMM(cl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	if fun, ph := run(false), run(true); fun != ph {
		t.Fatalf("functional %v != phantom %v", fun, ph)
	}
}

// TestDistributedGEMMForcedShardReusesRowShards forces a shard smaller
// than each machine's strip: every machine then runs several block rows,
// each row shard reused across all column shards, and the gathered product
// must still match. A shard that does not divide the strip is refused.
func TestDistributedGEMMForcedShardReusesRowShards(t *testing.T) {
	cfg := GEMMConfig{N: 256, Seed: 9, ShardDim: 64} // 2 machines: 128-row strips
	res, err := DistributedGEMM(newCluster(t, 2, false, 64, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float32, cfg.N*cfg.N)
	gemm.Reference(want, workload.Dense(cfg.N, cfg.N, cfg.Seed),
		workload.Dense(cfg.N, cfg.N, cfg.Seed+1), cfg.N, cfg.N, cfg.N)
	for i := range want {
		if d := res.C[i] - want[i]; d > 0.05 || d < -0.05 {
			t.Fatalf("forced-shard result differs from reference at %d", i)
		}
	}
	if _, err := DistributedGEMM(newCluster(t, 2, true, 64, 1), GEMMConfig{N: 256, ShardDim: 96}); err == nil {
		t.Fatal("a shard that does not divide the 128-row strip was accepted")
	}
}
