package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// newAPURuntime builds a small 2-level SSD topology and runtime.
func newAPURuntime(t *testing.T) (*sim.Engine, *Runtime) {
	t.Helper()
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 256, DRAMMiB: 32})
	return e, NewRuntime(e, tree, DefaultOptions())
}

// newDiscreteRuntime builds the 3-level discrete-GPU topology and runtime.
func newDiscreteRuntime(t *testing.T) (*sim.Engine, *Runtime) {
	t.Helper()
	e := sim.NewEngine()
	tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
		StorageMiB: 256, DRAMMiB: 64, GPUMemMiB: 32})
	return e, NewRuntime(e, tree, DefaultOptions())
}

func TestRunReportsElapsedAndLevelQueries(t *testing.T) {
	_, rt := newDiscreteRuntime(t)
	var levels []int
	stats, err := rt.Run("walk", func(c *Ctx) error {
		// Walk from root to leaf recording levels, like Listing 3's
		// recursion skeleton.
		var step func(c *Ctx) error
		step = func(c *Ctx) error {
			levels = append(levels, c.Level())
			if c.IsLeaf() {
				if c.Level() != c.MaxLevel() {
					t.Errorf("leaf at %d, max %d", c.Level(), c.MaxLevel())
				}
				return nil
			}
			return c.Descend(c.Children()[0], step)
		}
		return step(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 3 || levels[0] != 0 || levels[2] != 2 {
		t.Fatalf("levels = %v", levels)
	}
	if stats.Elapsed <= 0 {
		t.Fatal("no time charged for runtime ops")
	}
}

func TestDescendRejectsNonChild(t *testing.T) {
	_, rt := newDiscreteRuntime(t)
	_, err := rt.Run("bad", func(c *Ctx) error {
		leaf := c.rt.tree.Node(2) // grandchild
		return c.Descend(leaf, func(*Ctx) error { return nil })
	})
	if err == nil || !strings.Contains(err.Error(), "non-child") {
		t.Fatalf("err = %v", err)
	}
}

func TestAllocReleaseOnEveryKind(t *testing.T) {
	_, rt := newDiscreteRuntime(t)
	_, err := rt.Run("alloc", func(c *Ctx) error {
		for _, n := range rt.tree.Nodes() {
			b, err := c.AllocAt(n, 4096)
			if err != nil {
				return err
			}
			if b.OnStorage() != n.Kind().IsFileStore() {
				t.Errorf("%v: OnStorage=%v", n, b.OnStorage())
			}
			if !b.OnStorage() && len(b.Bytes()) != 4096 {
				t.Errorf("%v: payload %d bytes", n, len(b.Bytes()))
			}
			c.Release(b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// All space returned.
	for _, n := range rt.tree.Nodes() {
		if n.Mem.Used() != 0 {
			t.Errorf("%v: %d bytes leaked", n, n.Mem.Used())
		}
	}
	if rt.Breakdown().Busy(trace.BufferSetup) <= 0 {
		t.Fatal("no buffer-setup time accounted")
	}
}

func TestStorageBufferBytesPanics(t *testing.T) {
	_, rt := newAPURuntime(t)
	_, err := rt.Run("x", func(c *Ctx) error {
		b, err := c.Alloc(128) // root = SSD
		if err != nil {
			return err
		}
		defer c.Release(b)
		defer func() {
			if recover() == nil {
				t.Error("Bytes() on storage buffer did not panic")
			}
		}()
		_ = b.Bytes()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMoveDataThroughTheTree(t *testing.T) {
	// storage -> DRAM -> GPU mem -> DRAM -> storage round trip, checking
	// both function (bytes) and accounting (IO vs Transfer categories).
	_, rt := newDiscreteRuntime(t)
	root := rt.tree.Node(0)
	dram := rt.tree.Node(1)
	gmem := rt.tree.Node(2)
	payload := make([]byte, 8192)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	_, err := rt.Run("roundtrip", func(c *Ctx) error {
		disk, err := c.AllocAt(root, 8192)
		if err != nil {
			return err
		}
		host, err := c.AllocAt(dram, 8192)
		if err != nil {
			return err
		}
		dev, err := c.AllocAt(gmem, 8192)
		if err != nil {
			return err
		}
		// Seed the storage buffer by staging through the host.
		copy(host.Bytes(), payload)
		if err := c.MoveData(disk, host, 0, 0, 8192); err != nil {
			return err
		}
		// Clear host, then pull down the tree.
		for i := range host.Bytes() {
			host.Bytes()[i] = 0
		}
		if err := c.MoveData(host, disk, 0, 0, 8192); err != nil {
			return err
		}
		if err := c.MoveData(dev, host, 0, 0, 8192); err != nil {
			return err
		}
		if !bytes.Equal(dev.Bytes(), payload) {
			t.Error("payload corrupted on the way down")
		}
		// Mutate on "GPU", push back up.
		dev.Bytes()[0] ^= 0xFF
		if err := c.MoveData(host, dev, 0, 0, 8192); err != nil {
			return err
		}
		if err := c.MoveData(disk, host, 0, 0, 8192); err != nil {
			return err
		}
		// Read back from storage to verify.
		check, err := c.AllocAt(dram, 8192)
		if err != nil {
			return err
		}
		if err := c.MoveData(check, disk, 0, 0, 8192); err != nil {
			return err
		}
		if check.Bytes()[0] != payload[0]^0xFF || !bytes.Equal(check.Bytes()[1:], payload[1:]) {
			t.Error("payload corrupted on the way up")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	bd := rt.Breakdown()
	if bd.Busy(trace.IO) <= 0 {
		t.Fatal("no IO time accounted for storage moves")
	}
	if bd.Busy(trace.Transfer) <= 0 {
		t.Fatal("no transfer time accounted for PCIe moves")
	}
}

func TestMoveDataDownUpEnforceEdges(t *testing.T) {
	_, rt := newDiscreteRuntime(t)
	_, err := rt.Run("edges", func(c *Ctx) error {
		root := rt.tree.Node(0)
		dram := rt.tree.Node(1)
		gmem := rt.tree.Node(2)
		rb, _ := c.AllocAt(root, 64)
		db, _ := c.AllocAt(dram, 64)
		gb, _ := c.AllocAt(gmem, 64)
		// Legal: root ctx moving root->dram.
		if err := c.MoveDataDown(db, rb, 0, 0, 64); err != nil {
			t.Errorf("legal move_data_down failed: %v", err)
		}
		// Illegal: root ctx moving root->gmem skips a level.
		if err := c.MoveDataDown(gb, rb, 0, 0, 64); err == nil {
			t.Error("level-skipping move_data_down allowed")
		}
		// Legal: dram ctx moving gmem->dram (up one level).
		return c.Descend(dram, func(dc *Ctx) error {
			if err := dc.MoveDataUp(db, gb, 0, 0, 64); err != nil {
				t.Errorf("legal move_data_up failed: %v", err)
			}
			if err := dc.MoveDataUp(rb, gb, 0, 0, 64); err == nil {
				t.Error("move_data_up to non-current node allowed")
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMoveDataValidation(t *testing.T) {
	_, rt := newAPURuntime(t)
	_, err := rt.Run("validate", func(c *Ctx) error {
		dram := rt.tree.Node(1)
		a, _ := c.AllocAt(dram, 100)
		b, _ := c.AllocAt(dram, 100)
		if err := c.MoveData(a, b, 90, 0, 20); err == nil {
			t.Error("destination overflow accepted")
		}
		if err := c.MoveData(a, b, 0, 90, 20); err == nil {
			t.Error("source overflow accepted")
		}
		if err := c.MoveData(a, b, 0, 0, -1); err == nil {
			t.Error("negative size accepted")
		}
		if err := c.MoveData(a, nil, 0, 0, 1); err == nil {
			t.Error("nil source accepted")
		}
		if err := c.MoveData(a, b, 0, 0, 0); err != nil {
			t.Errorf("zero-size move failed: %v", err)
		}
		c.Release(b)
		if err := c.MoveData(a, b, 0, 0, 10); err == nil {
			t.Error("released source accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMoveData2DStorageVsMem(t *testing.T) {
	_, rt := newAPURuntime(t)
	root, dram := rt.tree.Node(0), rt.tree.Node(1)
	const rows, rowBytes = 4, 16
	_, err := rt.Run("move2d", func(c *Ctx) error {
		disk, _ := c.AllocAt(root, 1024)
		host, _ := c.AllocAt(dram, 1024)
		for i := range host.Bytes() {
			host.Bytes()[i] = byte(i)
		}
		// Host block -> strided storage layout and back.
		if err := c.MoveData2D(disk, host, 0, 64, 0, int64(rowBytes), rows, rowBytes); err != nil {
			return err
		}
		back, _ := c.AllocAt(dram, int64(rows*rowBytes))
		if err := c.MoveData2D(back, disk, 0, int64(rowBytes), 0, 64, rows, rowBytes); err != nil {
			return err
		}
		if !bytes.Equal(back.Bytes(), host.Bytes()[:rows*rowBytes]) {
			t.Error("2-D storage round trip mismatch")
		}
		// Mem->mem strided extraction.
		sub, _ := c.AllocAt(dram, 32)
		if err := c.MoveData2D(sub, host, 0, 8, 16, 64, 4, 8); err != nil {
			return err
		}
		for r := 0; r < 4; r++ {
			for j := 0; j < 8; j++ {
				if sub.Bytes()[r*8+j] != byte(16+r*64+j) {
					t.Fatalf("sub[%d,%d] = %d", r, j, sub.Bytes()[r*8+j])
				}
			}
		}
		if err := c.MoveData2D(sub, host, 0, 8, 1000, 64, 4, 8); err == nil {
			t.Error("out-of-range 2-D move accepted")
		}
		if err := c.MoveData2D(sub, host, 0, -8, 0, 64, 4, 8); err == nil {
			t.Error("negative stride accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMoveData2DContiguousMatchesMoveData: a one-row 2-D move between a
// file and GPU memory is the same move as MoveData, so it must take the
// same time in both directions, the PCIe crossing included.
func TestMoveData2DContiguousMatchesMoveData(t *testing.T) {
	const n = 16 << 20
	elapsed := func(up, twoD bool) sim.Time {
		e := sim.NewEngine()
		tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
			StorageMiB: 64, DRAMMiB: 32, GPUMemMiB: 32})
		opts := DefaultOptions()
		opts.Phantom = true
		rt := NewRuntime(e, tree, opts)
		var took sim.Time
		_, err := rt.Run("move", func(c *Ctx) error {
			file, err := c.AllocAt(tree.Root(), n)
			if err != nil {
				return err
			}
			gpu, err := c.AllocAt(gpuLeaf(rt), n)
			if err != nil {
				return err
			}
			dst, src := gpu, file
			if up {
				dst, src = file, gpu
			}
			start := c.Proc().Now()
			if twoD {
				err = c.MoveData2D(dst, src, 0, n, 0, n, 1, n)
			} else {
				err = c.MoveData(dst, src, 0, 0, n)
			}
			took = c.Proc().Now() - start
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return took
	}
	for _, up := range []bool{false, true} {
		dir := "file to GPU"
		if up {
			dir = "GPU to file"
		}
		if got, want := elapsed(up, true), elapsed(up, false); got != want {
			t.Errorf("%s: 2-D move took %v, MoveData %v", dir, got, want)
		}
	}
}

func TestDoubleReleaseReturnsError(t *testing.T) {
	_, rt := newAPURuntime(t)
	_, err := rt.Run("dblfree", func(c *Ctx) error {
		b, err := c.AllocAt(rt.tree.Node(1), 64)
		if err != nil {
			return err
		}
		if err := c.Release(b); err != nil {
			t.Errorf("first release failed: %v", err)
		}
		used := rt.tree.Node(1).Mem.Used()
		if err := c.Release(b); err == nil {
			t.Error("double release did not return an error")
		}
		if got := rt.tree.Node(1).Mem.Used(); got != used {
			t.Errorf("double release changed reservation: %d -> %d", used, got)
		}
		if err := c.Release(nil); err == nil {
			t.Error("nil release did not return an error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllocBeyondCapacityFails(t *testing.T) {
	_, rt := newAPURuntime(t)
	_, err := rt.Run("big", func(c *Ctx) error {
		if _, err := c.AllocAt(rt.tree.Node(1), 1<<40); err == nil {
			t.Error("absurd allocation succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	_, rt := newAPURuntime(t)
	seen := make([]int, 20)
	_, err := rt.Run("pf", func(c *Ctx) error {
		return c.ParallelFor(20, 4, func(sub *Ctx, i int) error {
			sub.Proc().Sleep(sim.Time(i%3) * sim.Microsecond)
			seen[i]++
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("index %d executed %d times", i, n)
		}
	}
}

func TestParallelForPropagatesError(t *testing.T) {
	_, rt := newAPURuntime(t)
	_, err := rt.Run("pf-err", func(c *Ctx) error {
		return c.ParallelFor(10, 3, func(sub *Ctx, i int) error {
			if i == 4 {
				return errBoom
			}
			return nil
		})
	})
	if err != errBoom {
		t.Fatalf("err = %v", err)
	}
}

var errBoom = &testError{"boom"}

type testError struct{ s string }

func (e *testError) Error() string { return e.s }

func TestPipelineOverlapsStages(t *testing.T) {
	// Two stages of 10ms over 4 items: serial = 80ms, pipelined ~ 50ms.
	_, rt := newAPURuntime(t)
	var order []string
	stats, err := rt.Run("pipe", func(c *Ctx) error {
		stage := func(name string) func(*Ctx, int) error {
			return func(sub *Ctx, i int) error {
				sub.Proc().Sleep(10 * sim.Millisecond)
				order = append(order, name)
				return nil
			}
		}
		return c.Pipeline(4, 2, stage("load"), stage("compute"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Elapsed >= 80*sim.Millisecond {
		t.Fatalf("no overlap: elapsed %v", stats.Elapsed)
	}
	if stats.Elapsed < 50*sim.Millisecond {
		t.Fatalf("impossible overlap: elapsed %v", stats.Elapsed)
	}
	if len(order) != 8 {
		t.Fatalf("%d stage executions", len(order))
	}
}

func TestPipelineDepthLimitsBuffering(t *testing.T) {
	// With depth 1, the loader may run at most 1 item ahead of compute:
	// item i+1 loads only after compute finishes item i. Slow compute,
	// fast load -> elapsed ~= load(0) + n*compute.
	_, rt := newAPURuntime(t)
	stats, err := rt.Run("pipe1", func(c *Ctx) error {
		load := func(sub *Ctx, i int) error {
			sub.Proc().Sleep(1 * sim.Millisecond)
			return nil
		}
		compute := func(sub *Ctx, i int) error {
			sub.Proc().Sleep(10 * sim.Millisecond)
			return nil
		}
		return c.Pipeline(5, 1, load, compute)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 51 * sim.Millisecond
	if stats.Elapsed < want || stats.Elapsed > want+sim.Millisecond {
		t.Fatalf("elapsed %v, want ~%v", stats.Elapsed, want)
	}
}

func TestPipelinePropagatesError(t *testing.T) {
	_, rt := newAPURuntime(t)
	_, err := rt.Run("pipe-err", func(c *Ctx) error {
		return c.Pipeline(6, 2,
			func(sub *Ctx, i int) error { return nil },
			func(sub *Ctx, i int) error {
				if i == 2 {
					return errBoom
				}
				return nil
			})
	})
	if err != errBoom {
		t.Fatalf("err = %v", err)
	}
}

// TestPipelineAllocsDoNotGrowWithItems: a stage hand-off passes only a
// count, so a Pipeline allocates nothing per item. A fast stage feeding a
// slow one keeps putters blocked on full hand-offs, and a slow stage
// feeding a faster one keeps takers blocked on empty ones.
func TestPipelineAllocsDoNotGrowWithItems(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	stage := func(d sim.Time) func(*Ctx, int) error {
		return func(sub *Ctx, i int) error {
			sub.Proc().Sleep(d)
			return nil
		}
	}
	allocs := func(items int) float64 {
		return testing.AllocsPerRun(5, func() {
			e := sim.NewEngine()
			tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64, DRAMMiB: 32})
			rt := NewRuntime(e, tree, DefaultOptions())
			if _, err := rt.Run("pipe", func(c *Ctx) error {
				return c.Pipeline(items, 2, stage(sim.Microsecond), stage(3*sim.Microsecond), stage(2*sim.Microsecond))
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(100), allocs(1000); few != many {
		t.Fatalf("a Pipeline allocated %v objects over 100 items but %v over 1,000", few, many)
	}
}

func TestSpawnJoin(t *testing.T) {
	_, rt := newAPURuntime(t)
	_, err := rt.Run("spawn", func(c *Ctx) error {
		leaf := rt.tree.Node(1)
		j1 := c.Spawn("a", leaf, func(sub *Ctx) error {
			sub.Proc().Sleep(5 * sim.Millisecond)
			return nil
		})
		j2 := c.Spawn("b", leaf, func(sub *Ctx) error {
			sub.Proc().Sleep(3 * sim.Millisecond)
			return errBoom
		})
		if err := j1.Wait(c); err != nil {
			t.Errorf("j1 err = %v", err)
		}
		if err := j2.Wait(c); err != errBoom {
			t.Errorf("j2 err = %v", err)
		}
		if c.Proc().Now() < 5*sim.Millisecond {
			t.Error("join returned before spawned tasks finished")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestComputeAtLeaf(t *testing.T) {
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64,
		DRAMMiB: 32, WithCPU: true})
	rt := NewRuntime(e, tree, DefaultOptions())
	ran := false
	_, err := rt.Run("leafcompute", func(c *Ctx) error {
		return c.Descend(c.Children()[0], func(lc *Ctx) error {
			if lc.GPUModel() == nil {
				t.Error("no GPU at leaf")
			}
			if lc.CPUModel() == nil {
				t.Error("no CPU at leaf")
			}
			if _, err := lc.LaunchKernel(gpuNoopKernel(&ran), 8); err != nil {
				return err
			}
			_, err := lc.RunCPU(1e6, 1e5, nil)
			return err
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("kernel body did not run")
	}
	bd := rt.Breakdown()
	if bd.Busy(trace.GPUCompute) <= 0 || bd.Busy(trace.CPUCompute) <= 0 {
		t.Fatalf("compute not accounted: %s", bd)
	}
}

func TestCPUModelFoundOnAncestor(t *testing.T) {
	// In the discrete topology the CPU sits on the DRAM (non-leaf) node;
	// a leaf ctx must still find it (the paper's exception).
	_, rt := newDiscreteRuntime(t)
	_, err := rt.Run("cpu-up", func(c *Ctx) error {
		leaf := rt.tree.Node(2)
		return c.Spawn("leaf", leaf, func(lc *Ctx) error {
			if lc.CPUModel() == nil {
				t.Error("leaf ctx cannot see ancestor CPU")
			}
			return nil
		}).Wait(c)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLaunchKernelWithoutGPU(t *testing.T) {
	_, rt := newAPURuntime(t)
	_, err := rt.Run("nogpu", func(c *Ctx) error {
		// Root (SSD) has no GPU.
		_, err := c.LaunchKernel(gpuNoopKernel(nil), 1)
		if err == nil {
			t.Error("kernel launch without GPU succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeOverheadStaysBelowOnePercent(t *testing.T) {
	// §V-B: with coarse-grained chunks, runtime bookkeeping is <1% of
	// total. Do a plausible chunked copy workload and check.
	_, rt := newAPURuntime(t)
	root, dram := rt.tree.Node(0), rt.tree.Node(1)
	_, err := rt.Run("overhead", func(c *Ctx) error {
		const chunk = 1 << 20
		disk, err := c.AllocAt(root, 16*chunk)
		if err != nil {
			return err
		}
		for i := 0; i < 16; i++ {
			hb, err := c.AllocAt(dram, chunk)
			if err != nil {
				return err
			}
			if err := c.MoveData(hb, disk, 0, int64(i)*chunk, chunk); err != nil {
				return err
			}
			if err := c.MoveData(disk, hb, int64(i)*chunk, 0, chunk); err != nil {
				return err
			}
			c.Release(hb)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	bd := rt.Breakdown()
	frac := bd.FractionOfTotal(trace.Runtime)
	if frac >= 0.01 {
		t.Fatalf("runtime overhead %.2f%% of total, paper claims <1%%", 100*frac)
	}
	if frac <= 0 {
		t.Fatal("runtime overhead not accounted at all")
	}
}

func TestPiecesToFit(t *testing.T) {
	cases := []struct {
		total, free int64
		bufs        int
		want        int
	}{
		{100, 1000, 1, 1},
		{1000, 1000, 1, 1},
		{1000, 999, 1, 2},
		{1 << 30, 1 << 28, 3, 12},
		{0, 100, 1, 1},
	}
	for _, c := range cases {
		if got := PiecesToFit(c.total, c.free, c.bufs); got != c.want {
			t.Errorf("PiecesToFit(%d,%d,%d) = %d, want %d",
				c.total, c.free, c.bufs, got, c.want)
		}
	}
	// Feasibility property: the chosen piece count always fits.
	for _, c := range cases {
		if c.total == 0 {
			continue
		}
		got := PiecesToFit(c.total, c.free, c.bufs)
		if int64(c.bufs)*(c.total/int64(got)) > c.free {
			t.Errorf("PiecesToFit(%d,%d,%d) = %d does not fit",
				c.total, c.free, c.bufs, got)
		}
	}
}

func TestDeviceReport(t *testing.T) {
	_, rt := newAPURuntime(t)
	_, err := rt.Run("traffic", func(c *Ctx) error {
		disk, err := c.Alloc(1 << 20)
		if err != nil {
			return err
		}
		host, err := c.AllocAt(rt.tree.Node(1), 1<<20)
		if err != nil {
			return err
		}
		return c.MoveData(host, disk, 0, 0, 1<<20)
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := rt.DeviceReport()
	for _, frag := range []string{"node0(ssd,L0)", "node1(mem,L1)", "1.0MiB", "util", "elapsed"} {
		if !strings.Contains(rep, frag) {
			t.Fatalf("device report missing %q:\n%s", frag, rep)
		}
	}
	if rt.Elapsed() <= 0 {
		t.Fatal("Elapsed not recorded")
	}
}

func TestCapacityExhaustionFailsCleanly(t *testing.T) {
	// An application that overfills a level must get an error back through
	// the recursive call chain — no deadlock, no panic, engine reusable.
	_, rt := newAPURuntime(t)
	_, err := rt.Run("overfill", func(c *Ctx) error {
		dram := rt.tree.Node(1)
		var bufs []*Buffer
		for {
			b, err := c.AllocAt(dram, 8<<20)
			if err != nil {
				for _, old := range bufs {
					c.Release(old)
				}
				return err
			}
			bufs = append(bufs, b)
		}
	})
	if err == nil {
		t.Fatal("overfill did not error")
	}
	// The runtime survives for a subsequent run.
	if _, err := rt.Run("again", func(c *Ctx) error { return nil }); err != nil {
		t.Fatalf("runtime unusable after capacity error: %v", err)
	}
	if rt.tree.Node(1).Mem.Used() != 0 {
		t.Fatal("capacity not restored after failed run")
	}
}

func TestSequentialRunsStagesInOrder(t *testing.T) {
	_, rt := newAPURuntime(t)
	var order []string
	stats, err := rt.Run("seq", func(c *Ctx) error {
		return c.Sequential(3, 2,
			func(sub *Ctx, i int) error {
				sub.Proc().Sleep(10 * sim.Millisecond)
				order = append(order, "load")
				return nil
			},
			func(sub *Ctx, i int) error {
				sub.Proc().Sleep(10 * sim.Millisecond)
				order = append(order, "compute")
				return nil
			})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "load,compute,load,compute,load,compute"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %s", got)
	}
	// No overlap: exactly 6 x 10ms.
	if stats.Elapsed < 60*sim.Millisecond {
		t.Fatalf("sequential elapsed %v < 60ms", stats.Elapsed)
	}
}

func TestSequentialPropagatesError(t *testing.T) {
	_, rt := newAPURuntime(t)
	_, err := rt.Run("seq-err", func(c *Ctx) error {
		return c.Sequential(5, 1, func(sub *Ctx, i int) error {
			if i == 2 {
				return errBoom
			}
			return nil
		})
	})
	if err != errBoom {
		t.Fatalf("err = %v", err)
	}
}
