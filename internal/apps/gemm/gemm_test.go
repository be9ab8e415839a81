package gemm

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

// almostEqual compares float32 results with a tolerance scaled to the
// accumulation length.
func almostEqual(a, b []float32, k int) bool {
	if len(a) != len(b) {
		return false
	}
	tol := 1e-4 * float32(math.Sqrt(float64(k)))
	for i := range a {
		d := a[i] - b[i]
		if d < -tol || d > tol {
			return false
		}
	}
	return true
}

func TestTileKernelMatchesReference(t *testing.T) {
	e := sim.NewEngine()
	tree := topo.InMemory(e, 64)
	rt := core.NewRuntime(e, tree, core.DefaultOptions())
	const n, k, m = 96, 128, 160 // non-multiples of TileDim in n,m
	A := workload.Dense(n, k, 1)
	B := workload.Dense(k, m, 2)
	C := make([]float32, n*m)
	want := make([]float32, n*m)
	Reference(want, A, B, n, k, m)

	_, err := rt.Run("kern", func(c *core.Ctx) error {
		kern, groups := TileKernel(C, A, B, n, k, m, false)
		_, err := c.LaunchKernel(kern, groups)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(C, want, k) {
		t.Fatal("tile kernel result differs from reference")
	}
}

func TestTileKernelAccumulates(t *testing.T) {
	e := sim.NewEngine()
	rt := core.NewRuntime(e, topo.InMemory(e, 64), core.DefaultOptions())
	const n = 64
	A := workload.Dense(n, n, 3)
	B := workload.Dense(n, n, 4)
	C := make([]float32, n*n)
	want := make([]float32, n*n)
	Reference(want, A, B, n, n, n)
	for i := range want {
		want[i] *= 2
	}
	_, err := rt.Run("acc", func(c *core.Ctx) error {
		k1, g := TileKernel(C, A, B, n, n, n, false)
		if _, err := c.LaunchKernel(k1, g); err != nil {
			return err
		}
		k2, g := TileKernel(C, A, B, n, n, n, true)
		_, err := c.LaunchKernel(k2, g)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(C, want, 2*n) {
		t.Fatal("accumulation wrong")
	}
}

// newOutOfCoreRuntime builds a 2-level SSD topology whose DRAM is too small
// for the whole working set, forcing chunked execution.
func newOutOfCoreRuntime(phantom bool) *core.Runtime {
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64, DRAMMiB: 1})
	opts := core.DefaultOptions()
	opts.Phantom = phantom
	return core.NewRuntime(e, tree, opts)
}

func TestNorthupMatchesReference2Level(t *testing.T) {
	rt := newOutOfCoreRuntime(false)
	cfg := Config{N: 256, Seed: 11}
	res, err := RunNorthup(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardDim >= cfg.N {
		t.Fatalf("shard %d not out-of-core for N=%d", res.ShardDim, cfg.N)
	}
	A := workload.Dense(cfg.N, cfg.N, cfg.Seed)
	B := workload.Dense(cfg.N, cfg.N, cfg.Seed+1)
	want := make([]float32, cfg.N*cfg.N)
	Reference(want, A, B, cfg.N, cfg.N, cfg.N)
	if !almostEqual(res.C, want, cfg.N) {
		t.Fatal("out-of-core result differs from reference")
	}
	bd := &res.Stats.Breakdown
	if bd.Busy(trace.IO) <= 0 || bd.Busy(trace.GPUCompute) <= 0 {
		t.Fatalf("missing breakdown components: %s", bd)
	}
}

func TestNorthupMatchesReference3Level(t *testing.T) {
	e := sim.NewEngine()
	tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
		StorageMiB: 64, DRAMMiB: 4, GPUMemMiB: 1})
	rt := core.NewRuntime(e, tree, core.DefaultOptions())
	cfg := Config{N: 256, Seed: 13}
	res, err := RunNorthup(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	A := workload.Dense(cfg.N, cfg.N, cfg.Seed)
	B := workload.Dense(cfg.N, cfg.N, cfg.Seed+1)
	want := make([]float32, cfg.N*cfg.N)
	Reference(want, A, B, cfg.N, cfg.N, cfg.N)
	if !almostEqual(res.C, want, cfg.N) {
		t.Fatal("3-level result differs from reference")
	}
	// The discrete topology must show PCIe transfer time (Fig. 8's
	// "OpenCL transfers").
	if res.Stats.Breakdown.Busy(trace.Transfer) <= 0 {
		t.Fatal("no transfer time on the 3-level tree")
	}
}

func TestPhantomTimingMatchesFunctional(t *testing.T) {
	// The phantom (timing-only) mode must charge exactly the same virtual
	// time as a functional run — that is what makes paper-scale benches
	// trustworthy.
	cfg := Config{N: 256, Seed: 11}
	fun, err := RunNorthup(newOutOfCoreRuntime(false), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := RunNorthup(newOutOfCoreRuntime(true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fun.Stats.Elapsed != ph.Stats.Elapsed {
		t.Fatalf("functional %v != phantom %v", fun.Stats.Elapsed, ph.Stats.Elapsed)
	}
	if ph.C != nil {
		t.Fatal("phantom run produced functional output")
	}
}

func TestInMemoryBaseline(t *testing.T) {
	e := sim.NewEngine()
	rt := core.NewRuntime(e, topo.InMemory(e, 16), core.DefaultOptions())
	cfg := Config{N: 128, Seed: 17}
	res, err := RunNorthup(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float32, cfg.N*cfg.N)
	Reference(want, workload.Dense(cfg.N, cfg.N, cfg.Seed),
		workload.Dense(cfg.N, cfg.N, cfg.Seed+1), cfg.N, cfg.N, cfg.N)
	if !almostEqual(res.C, want, cfg.N) {
		t.Fatal("in-memory result differs from reference")
	}
	if res.Stats.Breakdown.Busy(trace.IO) != 0 {
		t.Fatal("in-memory baseline charged I/O")
	}
}

func TestOutOfCoreSlowerThanInMemory(t *testing.T) {
	// Fig. 6's sanity direction: Northup out-of-core cannot be faster than
	// the in-memory baseline on the same GPU.
	cfg := Config{N: 256, Seed: 11}
	e := sim.NewEngine()
	rtIM := core.NewRuntime(e, topo.InMemory(e, 16), core.DefaultOptions())
	im, err := RunNorthup(rtIM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ooc, err := RunNorthup(newOutOfCoreRuntime(true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ooc.Stats.Elapsed <= im.Stats.Elapsed {
		t.Fatalf("out-of-core %v not slower than in-memory %v",
			ooc.Stats.Elapsed, im.Stats.Elapsed)
	}
}

func TestConfigValidation(t *testing.T) {
	rt := newOutOfCoreRuntime(true)
	if _, err := RunNorthup(rt, Config{N: 100}); err == nil {
		t.Fatal("non-multiple N accepted")
	}
	if _, err := RunNorthup(rt, Config{N: 0}); err == nil {
		t.Fatal("zero N accepted")
	}
	// A field the run would ignore, or misread as its default, is refused
	// by name before anything is charged: on a memory root every
	// out-of-core field, on any root StreamOpts without Streamed and a
	// negative Depth.
	streamOpts := core.StreamOptions{SubChunks: 8}
	for _, tc := range []struct {
		cfg      Config
		inMemory bool
		want     string
	}{
		{Config{N: 128, ShardDim: 64}, true, "Config.ShardDim"},
		{Config{N: 128, Depth: 3}, true, "Config.Depth"},
		{Config{N: 128, Sequential: true}, true, "Config.Sequential"},
		{Config{N: 128, StageB: true}, true, "Config.StageB"},
		{Config{N: 128, Streamed: true, StreamOpts: streamOpts}, true, "Config.Streamed"},
		{Config{N: 128, StreamOpts: streamOpts}, true, "Config.StreamOpts"},
		{Config{N: 128, StreamOpts: streamOpts}, false, "Config.StreamOpts"},
		{Config{N: 128, Depth: -3}, false, "Depth=-3"},
	} {
		rt := newOutOfCoreRuntime(true)
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
}

func TestReferenceProperties(t *testing.T) {
	// Identity: A·I = A.
	f := func(seed int64) bool {
		const n = 24
		A := workload.Dense(n, n, seed)
		I := make([]float32, n*n)
		for i := 0; i < n; i++ {
			I[i*n+i] = 1
		}
		C := make([]float32, n*n)
		Reference(C, A, I, n, n, n)
		for i := range C {
			if C[i] != A[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// textbookGEMM is the oracle for bit-exactness: the plain triple loop, each
// C element summed over k in order, starting from C's value when
// accumulating and from zero otherwise.
func textbookGEMM(C, A, B []float32, n, k, m int, accumulate bool) {
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			var s float32
			if accumulate {
				s = C[i*m+j]
			}
			for kk := 0; kk < k; kk++ {
				s += A[i*k+kk] * B[kk*m+j]
			}
			C[i*m+j] = s
		}
	}
}

// TestKernelsBitExact holds Reference and TileKernel to the textbook loop
// bit for bit, on shapes that are multiples of neither the inner loop's
// unroll width nor TileDim nor KTile, with zeros in A on the skip path.
func TestKernelsBitExact(t *testing.T) {
	same := func(got, want []float32) bool {
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				return false
			}
		}
		return true
	}
	for _, sh := range []struct{ n, k, m int }{{70, 37, 131}, {65, 19, 3}, {3, 1, 67}} {
		n, k, m := sh.n, sh.k, sh.m
		A := workload.Dense(n, k, 7)
		for i := 0; i < len(A); i += 5 {
			A[i] = 0
		}
		B := workload.Dense(k, m, 8)
		want := make([]float32, n*m)
		textbookGEMM(want, A, B, n, k, m, false)
		got := make([]float32, n*m)
		Reference(got, A, B, n, k, m)
		if !same(got, want) {
			t.Errorf("%dx%dx%d: Reference differs from the textbook loop", n, k, m)
		}
		for _, acc := range []bool{false, true} {
			C := workload.Dense(n, m, 9)
			want := append([]float32(nil), C...)
			textbookGEMM(want, A, B, n, k, m, acc)
			kern, groups := TileKernel(C, A, B, n, k, m, acc)
			for g := 0; g < groups; g++ {
				kern.Run(g)
			}
			if !same(C, want) {
				t.Errorf("%dx%dx%d accumulate=%v: TileKernel differs from the textbook loop", n, k, m, acc)
			}
		}
	}
}

func TestChooseShardDim(t *testing.T) {
	// Plenty of room: whole matrix in one shard.
	s, err := ChooseShardDim(Config{N: 256}, 256, 1<<30)
	if err != nil || s != 256 {
		t.Fatalf("s=%d err=%v", s, err)
	}
	// Tight: must subdivide.
	s, err = ChooseShardDim(Config{N: 256}, 256, 1<<20)
	if err != nil || s >= 256 || s%TileDim != 0 || 256%s != 0 {
		t.Fatalf("s=%d err=%v", s, err)
	}
	// Impossible.
	if _, err = ChooseShardDim(Config{N: 1024}, 1024, 1000); err == nil {
		t.Fatal("impossible capacity accepted")
	}
}

func TestSequentialModeMatchesReferenceAndIsSlower(t *testing.T) {
	cfg := Config{N: 256, Seed: 11, Sequential: true}
	seq, err := RunNorthup(newOutOfCoreRuntime(false), cfg)
	if err != nil {
		t.Fatal(err)
	}
	A := workload.Dense(cfg.N, cfg.N, cfg.Seed)
	B := workload.Dense(cfg.N, cfg.N, cfg.Seed+1)
	want := make([]float32, cfg.N*cfg.N)
	Reference(want, A, B, cfg.N, cfg.N, cfg.N)
	if !almostEqual(seq.C, want, cfg.N) {
		t.Fatal("sequential-mode result differs from reference")
	}
	piped, err := RunNorthup(newOutOfCoreRuntime(true), Config{N: 256, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Stats.Elapsed <= piped.Stats.Elapsed {
		t.Fatalf("sequential (%v) not slower than pipelined (%v)",
			seq.Stats.Elapsed, piped.Stats.Elapsed)
	}
}
