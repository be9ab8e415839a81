package spmv

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/taskgraph"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

func almostEqual(a, b []float32, scale float64) bool {
	if len(a) != len(b) {
		return false
	}
	tol := float32(1e-4 * math.Sqrt(scale))
	for i := range a {
		d := a[i] - b[i]
		if d < -tol || d > tol {
			return false
		}
	}
	return true
}

func TestBuildRowBlocksInvariants(t *testing.T) {
	// Property: blocks cover every row exactly once (VectorLong slices
	// cover every nnz of their row exactly once), in order, and stream
	// blocks respect the window.
	f := func(seed int64, kindRaw, avgRaw uint8) bool {
		kind := workload.SparseKind(kindRaw % 3)
		avg := int(avgRaw%40) + 1
		m := workload.Sparse(kind, 300, avg, seed)
		blocks := BuildRowBlocks(m.RowPtr)
		row := 0
		for bi := 0; bi < len(blocks); bi++ {
			b := blocks[bi]
			if b.Row0 != row {
				return false
			}
			switch b.Kind {
			case Stream, Vector:
				if b.Kind == Stream && int(m.RowPtr[b.Row1]-m.RowPtr[b.Row0]) > NNZPerGroup {
					return false
				}
				row = b.Row1
			case VectorLong:
				// Walk all slices of this row.
				start := int(m.RowPtr[b.Row0] - m.RowPtr[0])
				end := int(m.RowPtr[b.Row0+1] - m.RowPtr[0])
				pos := start
				for ; bi < len(blocks) && blocks[bi].Kind == VectorLong && blocks[bi].Row0 == b.Row0; bi++ {
					s := blocks[bi]
					if s.NNZ0 != pos || (pos == start) != s.ClearY {
						return false
					}
					pos = s.NNZ1
				}
				bi--
				if pos != end {
					return false
				}
				row = b.Row0 + 1
			}
		}
		return row == m.NRows
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRowBlocksLongRow(t *testing.T) {
	rowPtr := []int32{0, 3, int32(3 + VectorLongThreshold + 100), int32(3 + VectorLongThreshold + 105)}
	blocks := BuildRowBlocks(rowPtr)
	var longSlices int
	for _, b := range blocks {
		if b.Kind == VectorLong {
			longSlices++
			if b.NNZ1-b.NNZ0 > NNZPerGroup {
				t.Fatalf("VectorL slice too large: %+v", b)
			}
		}
	}
	want := (VectorLongThreshold + 100 + NNZPerGroup - 1) / NNZPerGroup
	if longSlices != want {
		t.Fatalf("%d VectorL slices, want %d", longSlices, want)
	}
}

// TestKernelGroupsInAnyOrderMatchBlocksInOrder runs the functional
// kernel's groups in reverse order over a shard with two adjacent long
// rows that CSR-VectorL splits: y must equal, bit for bit, ExecBlock over
// the blocks in order, the serial pass that accumulates each long row's
// slices.
func TestKernelGroupsInAnyOrderMatchBlocksInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lens := []int{3, VectorLongThreshold + 808, VectorLongThreshold + 1800, 2500, 7}
	rowPtr := []int32{0}
	var col []int32
	var val []float32
	const nx = 12000
	for _, n := range lens {
		for k := 0; k < n; k++ {
			col = append(col, int32(rng.Intn(nx)))
			val = append(val, rng.Float32()*2-1)
		}
		rowPtr = append(rowPtr, int32(len(col)))
	}
	x := workload.Vector(nx, 4)
	blocks := BuildRowBlocks(rowPtr)
	want := make([]float32, len(lens))
	for _, b := range blocks {
		ExecBlock(b, rowPtr, col, val, x, want)
	}
	got := make([]float32, len(lens))
	kern := Kernel(blocks, rowPtr, col, val, x, got)
	for g := len(blocks) - 1; g >= 0; g-- {
		kern.Run(g)
	}
	for r := range want {
		if math.Float32bits(got[r]) != math.Float32bits(want[r]) {
			t.Errorf("row %d: kernel %v, blocks in order %v", r, got[r], want[r])
		}
	}
}

func TestExecBlockMatchesReference(t *testing.T) {
	f := func(seed int64, kindRaw uint8) bool {
		kind := workload.SparseKind(kindRaw % 3)
		m := workload.Sparse(kind, 200, 12, seed)
		x := workload.Vector(200, seed+1)
		want := Reference(m, x)
		y := make([]float32, 200)
		for _, b := range BuildRowBlocks(m.RowPtr) {
			ExecBlock(b, m.RowPtr, m.ColIdx, m.Val, x, y)
		}
		return almostEqual(y, want, 12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func newSpmvRuntime(phantom bool, dramKiB int64) *core.Runtime {
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64,
		DRAMMiB: 1, WithCPU: true})
	_ = dramKiB
	opts := core.DefaultOptions()
	opts.Phantom = phantom
	return core.NewRuntime(e, tree, opts)
}

func TestNorthupMatchesReference(t *testing.T) {
	for _, kind := range []workload.SparseKind{workload.SparseUniform, workload.SparsePowerLaw, workload.SparseBanded} {
		cfg := Config{N: 3000, AvgNNZ: 10, Kind: kind, Seed: 21, Chunks: 4}
		rt := newSpmvRuntime(false, 0)
		res, err := RunNorthup(rt, cfg)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		m := workload.Sparse(kind, cfg.N, cfg.AvgNNZ, cfg.Seed)
		want := Reference(m, workload.Vector(cfg.N, cfg.Seed+1))
		if !almostEqual(res.Y, want, float64(cfg.AvgNNZ)) {
			t.Fatalf("%v: out-of-core result differs from reference", kind)
		}
		if res.Shards < cfg.Chunks {
			t.Fatalf("%v: %d shards < %d chunks", kind, res.Shards, cfg.Chunks)
		}
		bd := &res.Stats.Breakdown
		if bd.Busy(trace.IO) <= 0 || bd.Busy(trace.GPUCompute) <= 0 || bd.Busy(trace.CPUCompute) <= 0 {
			t.Fatalf("%v: missing breakdown components: %s", kind, bd)
		}
	}
}

func TestRecursiveSplittingOnSkewedInput(t *testing.T) {
	// Power-law rows with a tight staging budget force the recursion to
	// split overweight shards — the §IV-C adaptive division.
	cfg := Config{N: 20000, AvgNNZ: 30, Kind: workload.SparsePowerLaw, Seed: 3, Chunks: 4}
	rt := newSpmvRuntime(false, 0)
	res, err := RunNorthup(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Splits == 0 {
		t.Fatalf("no recursive splits on a skewed 20000x30 input (shards=%d)", res.Shards)
	}
	m := workload.Sparse(cfg.Kind, cfg.N, cfg.AvgNNZ, cfg.Seed)
	want := Reference(m, workload.Vector(cfg.N, cfg.Seed+1))
	if !almostEqual(res.Y, want, float64(cfg.AvgNNZ)) {
		t.Fatal("split-shard result differs from reference")
	}
}

func TestPhantomTimingMatchesFunctional(t *testing.T) {
	cfg := Config{N: 3000, AvgNNZ: 10, Kind: workload.SparsePowerLaw, Seed: 21}
	fun, err := RunNorthup(newSpmvRuntime(false, 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := RunNorthup(newSpmvRuntime(true, 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fun.Stats.Elapsed != ph.Stats.Elapsed {
		t.Fatalf("functional %v != phantom %v", fun.Stats.Elapsed, ph.Stats.Elapsed)
	}
	if fun.Shards != ph.Shards || fun.Splits != ph.Splits {
		t.Fatal("phantom planning diverged from functional planning")
	}
}

func TestNorthupOn3LevelTree(t *testing.T) {
	e := sim.NewEngine()
	tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
		StorageMiB: 64, DRAMMiB: 2, GPUMemMiB: 1})
	rt := core.NewRuntime(e, tree, core.DefaultOptions())
	cfg := Config{N: 3000, AvgNNZ: 10, Kind: workload.SparseUniform, Seed: 8}
	res, err := RunNorthup(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := workload.Sparse(cfg.Kind, cfg.N, cfg.AvgNNZ, cfg.Seed)
	want := Reference(m, workload.Vector(cfg.N, cfg.Seed+1))
	if !almostEqual(res.Y, want, float64(cfg.AvgNNZ)) {
		t.Fatal("3-level result differs from reference")
	}
	if res.Stats.Breakdown.Busy(trace.Transfer) <= 0 {
		t.Fatal("no PCIe transfer time on 3-level tree")
	}
}

func TestInMemoryBaseline(t *testing.T) {
	e := sim.NewEngine()
	rt := core.NewRuntime(e, topo.InMemory(e, 64), core.DefaultOptions())
	cfg := Config{N: 2000, AvgNNZ: 8, Kind: workload.SparseUniform, Seed: 4}
	res, err := RunInMemory(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := workload.Sparse(cfg.Kind, cfg.N, cfg.AvgNNZ, cfg.Seed)
	want := Reference(m, workload.Vector(cfg.N, cfg.Seed+1))
	if !almostEqual(res.Y, want, float64(cfg.AvgNNZ)) {
		t.Fatal("in-memory result differs from reference")
	}
	if res.Stats.Breakdown.Busy(trace.IO) != 0 {
		t.Fatal("in-memory baseline charged I/O")
	}
}

func TestSplitByNNZBalances(t *testing.T) {
	rowPtr := []int32{0, 100, 101, 102, 103, 104, 204}
	mid := splitByNNZ(rowPtr, 0, 6)
	left := rowPtr[mid] - rowPtr[0]
	right := rowPtr[6] - rowPtr[mid]
	if left == 0 || right == 0 {
		t.Fatalf("degenerate split at %d", mid)
	}
	if d := left - right; d > 104 || d < -104 {
		t.Fatalf("split %d badly unbalanced: %d vs %d", mid, left, right)
	}
}

func TestConfigValidation(t *testing.T) {
	rt := newSpmvRuntime(true, 0)
	if _, err := RunNorthup(rt, Config{N: 0}); err == nil {
		t.Fatal("zero N accepted")
	}
	if _, err := RunInMemory(rt, Config{N: 100}); err == nil {
		t.Fatal("in-memory baseline ran on storage tree")
	}
	for _, tc := range []struct {
		cfg  Config
		name string
	}{
		{Config{N: 100, AvgNNZ: -4}, "AvgNNZ=-4"},
		{Config{N: 100, Chunks: -1}, "Chunks=-1"},
		{Config{N: 100, Depth: -2}, "Depth=-2"},
		{Config{N: 100, Iters: -3}, "Iters=-3"},
	} {
		if err := tc.cfg.setDefaults(); err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%+v: err = %v, want a refusal naming %s", tc.cfg, err, tc.name)
		}
	}
	cfg := Config{N: 100}
	if err := cfg.setDefaults(); err != nil || cfg.AvgNNZ != 16 || cfg.Chunks != 4 || cfg.Depth != 2 || cfg.Iters != 1 {
		t.Fatalf("zero fields: err %v, defaults %+v", err, cfg)
	}
}

// TestRefusesRowPtrOverflow asks for 1<<20 rows of about 3000 non-zeros,
// some 3.1e9 in all, more than an int32 row_ptr indexes. Every schedule
// must refuse the input, naming N and AvgNNZ, in phantom and in functional
// mode, before it creates a file.
func TestRefusesRowPtrOverflow(t *testing.T) {
	cfg := Config{N: 1 << 20, AvgNNZ: 3000, Kind: workload.SparseUniform, Seed: 1}
	for _, sched := range []struct {
		name     string
		inMemory bool
		run      func(rt *core.Runtime) error
	}{
		{"northup", false, func(rt *core.Runtime) error { _, err := RunNorthup(rt, cfg); return err }},
		{"tasks", false, func(rt *core.Runtime) error { _, _, err := RunTasks(rt, cfg, taskgraph.Options{}); return err }},
		{"in-memory", true, func(rt *core.Runtime) error { _, err := RunInMemory(rt, cfg); return err }},
	} {
		for _, phantom := range []bool{true, false} {
			e := sim.NewEngine()
			tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64, DRAMMiB: 4, WithCPU: true})
			if sched.inMemory {
				tree = topo.InMemory(e, 64)
			}
			opts := core.DefaultOptions()
			opts.Phantom = phantom
			err := sched.run(core.NewRuntime(e, tree, opts))
			if err == nil || !strings.Contains(err.Error(), "N=1048576 AvgNNZ=3000") {
				t.Errorf("%s phantom=%v: err = %v, want a refusal naming N=1048576 AvgNNZ=3000",
					sched.name, phantom, err)
			}
			if store := tree.Root().Store; store != nil && len(store.List()) > 0 {
				t.Errorf("%s phantom=%v: created %v", sched.name, phantom, store.List())
			}
		}
	}
}

// hostPowerIteration is the sequential oracle for Config.Iters > 1: y = Ax,
// then x <- y / ||y||_inf between passes.
func hostPowerIteration(m *workload.CSR, x []float32, iters int) []float32 {
	cur := append([]float32(nil), x...)
	var y []float32
	for it := 0; it < iters; it++ {
		y = Reference(m, cur)
		if it == iters-1 {
			break
		}
		norm := float32(0)
		for _, v := range y {
			if v < 0 {
				v = -v
			}
			if v > norm {
				norm = v
			}
		}
		if norm == 0 {
			norm = 1
		}
		for i, v := range y {
			cur[i] = v / norm
		}
	}
	return y
}

func TestPowerIterationMatchesReference(t *testing.T) {
	cfg := Config{N: 2000, AvgNNZ: 8, Kind: workload.SparseBanded, Seed: 12, Iters: 4}
	rt := newSpmvRuntime(false, 0)
	res, err := RunNorthup(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := workload.Sparse(cfg.Kind, cfg.N, cfg.AvgNNZ, cfg.Seed)
	want := hostPowerIteration(m, workload.Vector(cfg.N, cfg.Seed+1), cfg.Iters)
	if !almostEqual(res.Y, want, float64(cfg.AvgNNZ*cfg.Iters)) {
		t.Fatal("power-iteration result differs from host oracle")
	}
}

func TestPowerIterationRestreamsMatrix(t *testing.T) {
	// K iterations must read the matrix ~K times from storage: the cost
	// structure that makes out-of-core iterative solvers storage-bound.
	run := func(iters int) int64 {
		rt := newSpmvRuntime(true, 0)
		if _, err := RunNorthup(rt, Config{N: 3000, AvgNNZ: 10,
			Kind: workload.SparseUniform, Seed: 2, Iters: iters}); err != nil {
			t.Fatal(err)
		}
		reads, _, _, _ := rt.Tree().Root().Mem.Stats()
		return reads
	}
	r1, r4 := run(1), run(4)
	ratio := float64(r4) / float64(r1)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("4-iteration run read %.1fx the matrix bytes, want ~4x", ratio)
	}
}

func TestPowerIterationOn3Level(t *testing.T) {
	e := sim.NewEngine()
	tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
		StorageMiB: 64, DRAMMiB: 2, GPUMemMiB: 1})
	rt := core.NewRuntime(e, tree, core.DefaultOptions())
	cfg := Config{N: 2000, AvgNNZ: 8, Kind: workload.SparseUniform, Seed: 15, Iters: 3}
	res, err := RunNorthup(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := workload.Sparse(cfg.Kind, cfg.N, cfg.AvgNNZ, cfg.Seed)
	want := hostPowerIteration(m, workload.Vector(cfg.N, cfg.Seed+1), cfg.Iters)
	if !almostEqual(res.Y, want, float64(cfg.AvgNNZ*cfg.Iters)) {
		t.Fatal("3-level power iteration differs from host oracle")
	}
}

func TestProvidedMatrixMarketInput(t *testing.T) {
	// Drive the out-of-core run with an explicit matrix, the path real
	// Florida-collection files take via workload.ParseMatrixMarket.
	in := `%%MatrixMarket matrix coordinate real general
4 4 6
1 1 2.0
1 4 1.0
2 2 -3.0
3 1 0.5
4 3 4.0
4 4 1.0
`
	m, err := workload.ParseMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	rt := newSpmvRuntime(false, 0)
	cfg := Config{Matrix: m, Seed: 7, Chunks: 2}
	res, err := RunNorthup(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(m, workload.Vector(4, cfg.Seed+1))
	if !almostEqual(res.Y, want, 4) {
		t.Fatalf("provided-matrix result %v differs from %v", res.Y, want)
	}
	// Phantom runtimes must reject explicit matrices.
	if _, err := RunNorthup(newSpmvRuntime(true, 0), cfg); err == nil {
		t.Fatal("phantom run accepted a provided matrix")
	}
	// Non-square matrices rejected up front.
	bad := &workload.CSR{NRows: 2, NCols: 3, RowPtr: []int32{0, 0, 0}}
	if _, err := RunNorthup(rt, Config{Matrix: bad}); err == nil {
		t.Fatal("non-square matrix accepted")
	}
}

// TestRefusesRootWithoutOneStagingChild runs on the committed asymmetric
// spec, whose root has two staging children, and on a storage root that is
// itself the leaf. The schedule stages through exactly one child, so it
// must refuse both trees, naming the child count, instead of leaving a
// branch idle or indexing a child that is not there.
func TestRefusesRootWithoutOneStagingChild(t *testing.T) {
	asym, err := os.ReadFile(filepath.Join("..", "..", "..", "specs", "asymmetric.json"))
	if err != nil {
		t.Fatal(err)
	}
	leafRoot := []byte(`{"name": "leaf-root", "nodes": [{"name": "ssd", "device": "ssd",
		"capacity_mib": 64, "procs": ["apu-gpu", "cpu"]}]}`)
	for _, tc := range []struct {
		spec []byte
		want string
	}{{asym, "2 staging children"}, {leafRoot, "0 staging children"}} {
		spec, err := topo.ParseSpec(tc.spec)
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
		_, err = RunNorthup(core.NewRuntime(e, tree, opts), Config{N: 65536, AvgNNZ: 16, Seed: 1})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want a refusal naming %s", spec.Name, err, tc.want)
		}
	}
}
