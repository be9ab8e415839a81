package northup_test

import (
	"bytes"
	"testing"

	"repro/northup"
)

// TestPublicAPIEndToEnd writes a complete Northup program through the
// public API only: build an asymmetric tree, run a recursive out-of-core
// byte-doubling job, and verify both the functional result and that timing
// accrued.
func TestPublicAPIEndToEnd(t *testing.T) {
	e := northup.NewEngine()
	b := northup.NewBuilder(e)
	root := b.Root(northup.SSDProfile(64*northup.MiB, 1400, 600))
	dram := b.Child(root, northup.DRAMProfile(4*northup.MiB))
	b.Attach(dram, northup.APUGPU(e), northup.APUCPU(e))
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := northup.NewRuntime(e, tree, northup.DefaultOptions())

	const total = 1 << 20
	input := make([]byte, total)
	for i := range input {
		input[i] = byte(i % 127)
	}

	var output []byte
	stats, err := rt.Run("double", func(c *northup.Ctx) error {
		src, err := c.Alloc(total) // on the storage root
		if err != nil {
			return err
		}
		dst, err := c.Alloc(total)
		if err != nil {
			return err
		}
		// Seed the input through a staging buffer (functionally, data
		// starts on storage; here we stage it in for the test).
		stage, err := c.AllocAt(c.Children()[0], total)
		if err != nil {
			return err
		}
		copy(stage.Bytes(), input)
		if err := c.MoveData(src, stage, 0, 0, total); err != nil {
			return err
		}

		// The recursive job: chunk by capacity, double each byte at the
		// leaf CPU, store back.
		pieces := northup.PiecesToFit(total, c.Children()[0].Mem.Free(), 2)
		chunk := int64(total / pieces)
		child := c.Children()[0]
		for i := 0; i < pieces; i++ {
			buf, err := c.AllocAt(child, chunk)
			if err != nil {
				return err
			}
			if err := c.MoveDataDown(buf, src, 0, int64(i)*chunk, chunk); err != nil {
				return err
			}
			if err := c.Descend(child, func(lc *northup.Ctx) error {
				if !lc.IsLeaf() || lc.Level() != lc.MaxLevel() {
					t.Error("leaf test failed at the bottom of the tree")
				}
				_, err := lc.RunCPU(float64(chunk), float64(chunk), func() {
					bs := buf.Bytes()
					for j := range bs {
						bs[j] *= 2
					}
				})
				return err
			}); err != nil {
				return err
			}
			if err := c.MoveDataUp(dst, buf, int64(i)*chunk, 0, chunk); err != nil {
				return err
			}
			c.Release(buf)
		}

		// Read the result back out through staging.
		if err := c.MoveData(stage, dst, 0, 0, total); err != nil {
			return err
		}
		output = append([]byte(nil), stage.Bytes()...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, total)
	for i := range want {
		want[i] = input[i] * 2
	}
	if !bytes.Equal(output, want) {
		t.Fatal("recursive out-of-core computation corrupted data")
	}
	if stats.Elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestSpecThroughPublicAPI(t *testing.T) {
	spec, err := northup.ParseSpec([]byte(`{
	  "name": "nvm-node",
	  "nodes": [
	    {"name": "ssd", "device": "ssd", "capacity_mib": 256},
	    {"name": "nvm", "parent": "ssd", "device": "nvm", "capacity_mib": 64},
	    {"name": "dram", "parent": "nvm", "device": "dram", "capacity_mib": 16, "procs": ["apu-gpu"]}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	e := northup.NewEngine()
	tree, err := northup.BuildSpec(e, spec)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Levels() != 3 {
		t.Fatalf("levels = %d", tree.Levels())
	}
	if tree.Node(1).Kind() != northup.KindNVM {
		t.Fatalf("middle level kind = %v", tree.Node(1).Kind())
	}
}

func TestStandardTopologiesThroughPublicAPI(t *testing.T) {
	e := northup.NewEngine()
	apu := northup.APU(e, northup.APUConfig{Storage: northup.HDD, StorageMiB: 128, DRAMMiB: 16})
	if apu.Root().Kind() != northup.KindHDD {
		t.Fatal("HDD root lost")
	}
	d := northup.Discrete(northup.NewEngine(), northup.DiscreteConfig{
		Storage: northup.SSD, StorageMiB: 128, DRAMMiB: 32, GPUMemMiB: 16})
	if d.Levels() != 3 {
		t.Fatal("discrete tree malformed")
	}
	im := northup.InMemory(northup.NewEngine(), 64)
	if im.Levels() != 1 {
		t.Fatal("in-memory tree malformed")
	}
}

// TestExtendedSurface exercises the extension entry points through the
// public API only: sort, profiled mapping, multi-branch scheduling, PIM.
func TestExtendedSurface(t *testing.T) {
	// Out-of-core sort.
	{
		e := northup.NewEngine()
		tree := northup.APU(e, northup.APUConfig{Storage: northup.SSD,
			StorageMiB: 16, DRAMMiB: 1, WithCPU: true})
		rt := northup.NewRuntime(e, tree, northup.DefaultOptions())
		res, err := northup.Sort(rt, northup.SortConfig{N: 20_000, Seed: 1, ChunkKeys: 6_000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Runs < 2 || res.Sorted == nil {
			t.Fatalf("sort: runs=%d", res.Runs)
		}
	}
	// Profiled mapping.
	{
		e := northup.NewEngine()
		tree := northup.APU(e, northup.APUConfig{Storage: northup.SSD,
			StorageMiB: 16, DRAMMiB: 2, WithCPU: true})
		rt := northup.NewRuntime(e, tree, northup.DefaultOptions())
		res, err := northup.HotSpotProfiled(rt, northup.HotSpotConfig{
			N: 64, Seed: 2, ChunkDim: 32, Iters: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.ChunksOnGPU+res.ChunksOnCPU != 4 {
			t.Fatalf("profiled: %d+%d chunks", res.ChunksOnGPU, res.ChunksOnCPU)
		}
	}
	// Multi-branch scheduling on an asymmetric tree.
	{
		e := northup.NewEngine()
		tree := northup.MultiBranch(e, northup.TopoMultiBranchConfig{
			Storage: northup.SSD, StorageMiB: 64,
			BranchDRAMMiB: []int64{4, 4}, FastBranches: []bool{false, true}})
		rt := northup.NewRuntime(e, tree, northup.DefaultOptions())
		res, err := northup.HotSpotNorthup(rt, northup.HotSpotConfig{
			N: 64, Seed: 3, ChunkDim: 16, Iters: 2, Policy: northup.DynamicQueue})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, n := range res.ChunksByBranch {
			total += n
		}
		if total != 16 {
			t.Fatalf("multibranch: %d chunks", total)
		}
	}
	// PIM at an NVM node.
	{
		e := northup.NewEngine()
		b := northup.NewBuilder(e)
		root := b.Root(northup.SSDProfile(32*northup.MiB, 1400, 600))
		nvm := b.Child(root, northup.NVMProfile(16*northup.MiB))
		b.Attach(nvm, northup.NewPIM(e, "pim", 8, 4e9, 6.5e9))
		dram := b.Child(nvm, northup.DRAMProfile(4*northup.MiB))
		b.Attach(dram, northup.APUGPU(e))
		tree, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		rt := northup.NewRuntime(e, tree, northup.DefaultOptions())
		ran := false
		if _, err := rt.Run("pim", func(c *northup.Ctx) error {
			return c.Descend(c.Children()[0], func(nc *northup.Ctx) error {
				_, err := nc.RunPIM(1e6, 1e6, func() { ran = true })
				return err
			})
		}); err != nil {
			t.Fatal(err)
		}
		if !ran {
			t.Fatal("PIM body did not run")
		}
	}
}
