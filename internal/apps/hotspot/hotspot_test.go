package hotspot

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

func almostEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		d := float64(a[i] - b[i])
		if math.Abs(d) > 1e-3 {
			return false
		}
	}
	return true
}

func TestReferenceBlockedMatchesGlobalForOneIter(t *testing.T) {
	// One iteration with exact pass-start borders IS the global step.
	const n = 64
	g := workload.HotSpotGrid(n, 1)
	want := Reference(g.Temp, g.Power, n, 1)
	for _, chunk := range []int{16, 32, 64} {
		got, err := ReferenceBlocked(g.Temp, g.Power, n, chunk, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, want) {
			t.Fatalf("chunk %d: blocked single-step differs from global", chunk)
		}
	}
}

func TestReferenceBlockedFullGridIsGlobal(t *testing.T) {
	// With one chunk covering the grid, any iteration count matches.
	const n, iters = 48, 7
	g := workload.HotSpotGrid(n, 2)
	want := Reference(g.Temp, g.Power, n, iters)
	got, err := ReferenceBlocked(g.Temp, g.Power, n, n, iters)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, want) {
		t.Fatal("full-grid blocked differs from global reference")
	}
}

func TestStencilCoolsTowardAmbientWithoutPower(t *testing.T) {
	// Physics sanity: with zero power, max temperature decreases toward
	// ambient monotonically.
	const n = 32
	temp := make([]float32, n*n)
	power := make([]float32, n*n)
	for i := range temp {
		temp[i] = 400
	}
	prevMax := float32(400)
	cur := temp
	for it := 0; it < 10; it++ {
		cur = Reference(cur, power, n, 1)
		var mx float32
		for _, v := range cur {
			if v > mx {
				mx = v
			}
		}
		if mx >= prevMax {
			t.Fatalf("iteration %d: max temp %g did not decrease from %g", it, mx, prevMax)
		}
		if mx < ambient {
			t.Fatalf("overshot ambient: %g", mx)
		}
		prevMax = mx
	}
}

func newHotspotRuntime(phantom bool, dramMiB int64) *core.Runtime {
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64, DRAMMiB: dramMiB})
	opts := core.DefaultOptions()
	opts.Phantom = phantom
	return core.NewRuntime(e, tree, opts)
}

func TestNorthupMatchesBlockedReference(t *testing.T) {
	cfg := Config{N: 64, Seed: 5, ChunkDim: 32, Iters: 4, Depth: 2}
	rt := newHotspotRuntime(false, 8)
	res, err := RunNorthup(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.HotSpotGrid(cfg.N, cfg.Seed)
	want, err := ReferenceBlocked(g.Temp, g.Power, cfg.N, cfg.ChunkDim, cfg.Iters)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Temp, want) {
		t.Fatal("out-of-core result differs from blocked reference")
	}
	bd := &res.Stats.Breakdown
	if bd.Busy(trace.IO) <= 0 || bd.Busy(trace.GPUCompute) <= 0 {
		t.Fatalf("missing breakdown components: %s", bd)
	}
}

func TestNorthupSingleIterMatchesGlobalReference(t *testing.T) {
	// The strongest functional check: 1 iteration out-of-core equals the
	// global Jacobi step bit-for-bit (borders are exact).
	cfg := Config{N: 64, Seed: 9, ChunkDim: 16, Iters: 1}
	rt := newHotspotRuntime(false, 8)
	res, err := RunNorthup(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.HotSpotGrid(cfg.N, cfg.Seed)
	want := Reference(g.Temp, g.Power, cfg.N, 1)
	if !almostEqual(res.Temp, want) {
		t.Fatal("single-iteration Northup differs from global reference")
	}
}

func TestMultiPassRegeneratesBorders(t *testing.T) {
	// Two passes of K iterations must equal two sequential blocked runs
	// where the second pass starts from the first pass's result (including
	// fresh borders) — proving the border-regeneration path works.
	cfg := Config{N: 64, Seed: 7, ChunkDim: 32, Iters: 3, Passes: 2}
	rt := newHotspotRuntime(false, 8)
	res, err := RunNorthup(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.HotSpotGrid(cfg.N, cfg.Seed)
	mid, err := ReferenceBlocked(g.Temp, g.Power, cfg.N, cfg.ChunkDim, cfg.Iters)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReferenceBlocked(mid, g.Power, cfg.N, cfg.ChunkDim, cfg.Iters)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Temp, want) {
		t.Fatal("two-pass result differs from sequential two-pass reference")
	}
}

func TestPhantomTimingMatchesFunctional(t *testing.T) {
	cfg := Config{N: 64, Seed: 5, ChunkDim: 32, Iters: 4}
	fun, err := RunNorthup(newHotspotRuntime(false, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := RunNorthup(newHotspotRuntime(true, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fun.Stats.Elapsed != ph.Stats.Elapsed {
		t.Fatalf("functional %v != phantom %v", fun.Stats.Elapsed, ph.Stats.Elapsed)
	}
}

func TestInMemoryMatchesGlobalReference(t *testing.T) {
	e := sim.NewEngine()
	rt := core.NewRuntime(e, topo.InMemory(e, 16), core.DefaultOptions())
	cfg := Config{N: 64, Seed: 3, Iters: 5}
	res, err := RunNorthup(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.HotSpotGrid(cfg.N, cfg.Seed)
	want := Reference(g.Temp, g.Power, cfg.N, cfg.Iters)
	if !almostEqual(res.Temp, want) {
		t.Fatal("in-memory result differs from reference")
	}
	if res.Stats.Breakdown.Busy(trace.IO) != 0 {
		t.Fatal("in-memory baseline charged I/O")
	}
}

func TestNorthup3LevelMatchesReference(t *testing.T) {
	// The discrete-GPU tree adds a device-memory level (Figure 8's setup);
	// results must be identical to the blocked reference.
	e := sim.NewEngine()
	tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
		StorageMiB: 64, DRAMMiB: 8, GPUMemMiB: 4})
	rt := core.NewRuntime(e, tree, core.DefaultOptions())
	cfg := Config{N: 64, Seed: 6, ChunkDim: 32, Iters: 3}
	res, err := RunNorthup(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.HotSpotGrid(cfg.N, cfg.Seed)
	want, err := ReferenceBlocked(g.Temp, g.Power, cfg.N, cfg.ChunkDim, cfg.Iters)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Temp, want) {
		t.Fatal("3-level result differs from blocked reference")
	}
	if res.Stats.Breakdown.Busy(trace.Transfer) <= 0 {
		t.Fatal("no PCIe transfer time on the 3-level tree")
	}
}

// TestFailedGPUChunkSetReleases: a chunk whose GPU buffer set does not fit
// device memory fails the run, and the part of the set already reserved
// there is released. A 384x384 chunk plane is 589,824 bytes, so 1 MiB of
// GPU memory holds one of the set's four buffers, not two.
func TestFailedGPUChunkSetReleases(t *testing.T) {
	e := sim.NewEngine()
	tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
		StorageMiB: 256, DRAMMiB: 64, GPUMemMiB: 1})
	opts := core.DefaultOptions()
	opts.Phantom = true
	rt := core.NewRuntime(e, tree, opts)
	_, err := RunNorthup(rt, Config{N: 768, ChunkDim: 384, Iters: 1})
	gpuMem := tree.Root().Children[0].Children[0]
	if err == nil || !strings.Contains(err.Error(), "alloc on "+gpuMem.String()) ||
		!strings.Contains(err.Error(), "need 589824 bytes") {
		t.Fatalf("err = %v, want the second 589824-byte buffer on %v refused", err, gpuMem)
	}
	if got := gpuMem.Mem.Used(); got != 0 {
		t.Fatalf("%v holds %d bytes after the failed chunk set, want 0", gpuMem, got)
	}
}

func TestAutoChunkRespectsCapacity(t *testing.T) {
	// A 256x256 grid (256 KiB per plane) with a 256 KiB staging buffer
	// must subdivide.
	rt := newHotspotRuntime(true, 1)
	cfg := Config{N: 256, Iters: 2}
	res, err := RunNorthup(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunkDim >= cfg.N {
		t.Fatalf("chunk %d not out-of-core", res.ChunkDim)
	}
}

func TestConfigValidation(t *testing.T) {
	rt := newHotspotRuntime(true, 8)
	if _, err := RunNorthup(rt, Config{N: 100}); err == nil {
		t.Fatal("non-multiple N accepted")
	}
	if _, err := RunNorthup(rt, Config{N: 64, ChunkDim: 24}); err == nil {
		t.Fatal("invalid chunk accepted")
	}
	// A field the run would ignore, or misread as its default, is refused
	// by name before anything is charged: on a memory root every
	// out-of-core field, on any root StreamOpts without Streamed, a
	// negative count and an unknown policy.
	streamOpts := core.StreamOptions{SubChunks: 8}
	for _, tc := range []struct {
		cfg      Config
		inMemory bool
		want     string
	}{
		{Config{N: 64, ChunkDim: 32}, true, "Config.ChunkDim"},
		{Config{N: 64, Depth: 3}, true, "Config.Depth"},
		{Config{N: 64, Streamed: true, StreamOpts: streamOpts}, true, "Config.Streamed"},
		{Config{N: 64, Policy: StaticPartition}, true, "Config.Policy"},
		{Config{N: 64, StreamOpts: streamOpts}, true, "Config.StreamOpts"},
		{Config{N: 64, StreamOpts: streamOpts}, false, "Config.StreamOpts"},
		{Config{N: 64, Iters: -5}, false, "Iters=-5"},
		{Config{N: 64, Depth: -1}, false, "Depth=-1"},
		{Config{N: 64, Passes: -2}, false, "Passes=-2"},
		{Config{N: 64, Passes: -2}, true, "Passes=-2"},
		{Config{N: 64, ChunkDim: -128}, false, "ChunkDim=-128"},
		{Config{N: 64, Policy: 7}, false, "Policy=7"},
	} {
		rt := newHotspotRuntime(true, 8)
		if tc.inMemory {
			e := sim.NewEngine()
			rt = core.NewRuntime(e, topo.InMemory(e, 16), core.DefaultOptions())
		}
		_, err := RunNorthup(rt, tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v in-memory=%v: err = %v, want a refusal naming %s", tc.cfg, tc.inMemory, err, tc.want)
		}
		if now := rt.Engine().Now(); now != 0 {
			t.Errorf("%+v in-memory=%v: refused at %v, after charges", tc.cfg, tc.inMemory, now)
		}
	}
	cfg := Config{N: 64}
	if err := cfg.setDefaults(); err != nil || cfg.Iters != 60 || cfg.Passes != 1 || cfg.Depth != 1 {
		t.Fatalf("zero fields: err %v, defaults %+v", err, cfg)
	}
}
