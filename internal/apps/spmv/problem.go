package spmv

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/view"
	"repro/internal/workload"
)

// problem is one out-of-core SpMV instance as every schedule sees it: the
// host row structure, the five storage files, the nnz shard plan, and the
// steps a schedule strings together — load a shard, compute it at the
// leaf, normalize between power iterations. A schedule only decides the
// order in which shards run.
type problem struct {
	cfg        Config
	functional bool
	dram       *topo.Node
	// rowPtr is the host row structure; it exists even in phantom mode
	// (64 MiB at 16M rows), columns, values and x only functionally.
	rowPtr   []int32
	vecBytes int64

	fRow, fCol, fVal, fX, fY *core.Buffer

	shards []shardRange
	splits int
}

// hostMatrix returns the run's input: the provided matrix, the generated
// one, or in phantom mode only the generated row structure. A generated
// matrix with more non-zeros than an int32 row_ptr indexes is refused here,
// before any file exists.
func hostMatrix(cfg Config, functional bool) (*workload.CSR, []int32, error) {
	var m *workload.CSR
	var rowPtr []int32
	var err error
	switch {
	case cfg.Matrix != nil:
		if !functional {
			return nil, nil, fmt.Errorf("spmv: provided matrices need a functional runtime")
		}
		return cfg.Matrix, cfg.Matrix.RowPtr, nil
	case functional:
		if m, err = workload.NewSparse(cfg.Kind, cfg.N, cfg.AvgNNZ, cfg.Seed); err == nil {
			rowPtr = m.RowPtr
		}
	default:
		rowPtr, err = workload.SparseRowPtr(cfg.Kind, cfg.N, cfg.AvgNNZ, cfg.Seed)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("spmv: N=%d AvgNNZ=%d: %w", cfg.N, cfg.AvgNNZ, err)
	}
	return m, rowPtr, nil
}

// newProblem validates cfg against the runtime's tree and puts row_ptr,
// col_id, data and the dense vectors on the storage root.
func newProblem(rt *core.Runtime, cfg Config) (*problem, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	dram, err := rt.Tree().StagingChild()
	if err != nil {
		return nil, fmt.Errorf("spmv: %w", err)
	}
	root := rt.Tree().Root()
	n := cfg.N
	p := &problem{cfg: cfg, functional: !rt.Phantom(), dram: dram, vecBytes: int64(n) * 4}
	m, rowPtr, err := hostMatrix(cfg, p.functional)
	if err != nil {
		return nil, err
	}
	p.rowPtr = rowPtr
	nnz := int64(rowPtr[n])

	var xHost []float32
	var colBytes, valBytes []byte
	if p.functional {
		xHost = workload.Vector(n, cfg.Seed+1)
		colBytes, valBytes = view.I32Bytes(m.ColIdx), view.F32Bytes(m.Val)
	}
	if p.fRow, err = rt.CreateInput(root, "sp-rowptr", int64(n+1)*4, view.I32Bytes(rowPtr)); err != nil {
		return nil, err
	}
	if p.fCol, err = rt.CreateInput(root, "sp-colidx", nnz*4, colBytes); err != nil {
		return nil, err
	}
	if p.fVal, err = rt.CreateInput(root, "sp-val", nnz*4, valBytes); err != nil {
		return nil, err
	}
	if p.fX, err = rt.CreateInput(root, "sp-x", p.vecBytes, view.F32Bytes(xHost)); err != nil {
		return nil, err
	}
	if p.fY, err = rt.CreateInput(root, "sp-y", p.vecBytes, nil); err != nil {
		return nil, err
	}
	return p, nil
}

// planShards is the recursion's planning pass: cfg.Chunks even row ranges,
// each split by nnz until its extents fit the shard budget. The budget is
// the tightest non-root level after the resident vectors, shared among
// slots in-flight shards plus the one being loaded.
func (p *problem) planShards(slots int) error {
	budget := int64(1) << 62
	for node := p.dram; node != nil; node = childOf(node) {
		free := node.Mem.Free()
		resident := p.vecBytes // x everywhere on the path
		if node == p.dram {
			resident += p.vecBytes // y stays at the staging level
		}
		b := (free*9/10 - resident) / int64(slots+1)
		if b < budget {
			budget = b
		}
	}
	if budget <= 0 {
		return fmt.Errorf("spmv: vectors alone exceed the hierarchy's capacity")
	}

	rowPtr := p.rowPtr
	var expand func(r0, r1 int) error
	expand = func(r0, r1 int) error {
		if shardBytes(rowPtr, r0, r1) <= budget {
			p.shards = append(p.shards, shardRange{r0, r1})
			return nil
		}
		if r1-r0 <= 1 {
			return fmt.Errorf("spmv: row %d alone (%d nnz) exceeds the level budget %d",
				r0, rowPtr[r0+1]-rowPtr[r0], budget)
		}
		p.splits++
		mid := splitByNNZ(rowPtr, r0, r1)
		if err := expand(r0, mid); err != nil {
			return err
		}
		return expand(mid, r1)
	}
	n, chunks := p.cfg.N, p.cfg.Chunks
	for c := 0; c < chunks; c++ {
		r0 := n * c / chunks
		r1 := n * (c + 1) / chunks
		if r0 == r1 {
			continue
		}
		if err := expand(r0, r1); err != nil {
			return err
		}
	}
	return nil
}

// rowExtent is the shard's byte range of the row_ptr file.
func (sh shardRange) rowExtent() (off, n int64) {
	return int64(sh.r0) * 4, int64(sh.r1-sh.r0+1) * 4
}

// nnzExtent is the shard's byte range of the col_id and data files.
func (p *problem) nnzExtent(sh shardRange) (off, n int64) {
	return int64(p.rowPtr[sh.r0]) * 4, int64(p.rowPtr[sh.r1]-p.rowPtr[sh.r0]) * 4
}

// vectors are a run's resident dense vectors: x on every level of the leaf
// path (xStage at the staging level, xLeaf at the deepest), y at the
// staging level, and y's host view in functional runs.
type vectors struct {
	xStage, xLeaf, yStage *core.Buffer
	y                     []float32
}

// withVectors moves x down the tree and allocates y, runs body, writes y
// back to storage (one sequential write) and frees the vectors.
func (p *problem) withVectors(c *core.Ctx, body func(v vectors) error) error {
	xStage, err := c.AllocAt(p.dram, p.vecBytes)
	if err != nil {
		return err
	}
	defer c.Release(xStage)
	if err := c.MoveDataDown(xStage, p.fX, 0, 0, p.vecBytes); err != nil {
		return err
	}
	yStage, err := c.AllocAt(p.dram, p.vecBytes)
	if err != nil {
		return err
	}
	defer c.Release(yStage)
	v := vectors{xStage: xStage, xLeaf: xStage, yStage: yStage}
	for leaf := p.dram; !leaf.IsLeaf(); {
		child := leaf.Children[0]
		xChild, err := c.AllocAt(child, p.vecBytes)
		if err != nil {
			return err
		}
		defer c.Release(xChild)
		if err := c.MoveData(xChild, v.xLeaf, 0, 0, p.vecBytes); err != nil {
			return err
		}
		v.xLeaf, leaf = xChild, child
	}
	if p.functional {
		v.y = view.F32(yStage.Bytes())
	}
	if err := body(v); err != nil {
		return err
	}
	return c.MoveData(p.fY, yStage, 0, 0, p.vecBytes)
}

// shardBufs are one shard's matrix extents, pinned at the staging level.
type shardBufs struct{ row, col, val *core.Buffer }

// loadShard fetches the shard's extents to the staging level. They are
// read-only and re-read on every power iteration, so they go through the
// staging cache: iteration 1 streams from storage, later iterations hit
// resident shards (capacity permitting). On failure nothing stays pinned.
func (p *problem) loadShard(c *core.Ctx, sh shardRange) (shardBufs, error) {
	var s shardBufs
	var err error
	rowOff, rowLen := sh.rowExtent()
	off, n := p.nnzExtent(sh)
	if s.row, err = c.MoveDataDownCached(p.dram, p.fRow, rowOff, rowLen); err != nil {
		return s, err
	}
	if s.col, err = c.MoveDataDownCached(p.dram, p.fCol, off, n); err != nil {
		c.Unpin(s.row)
		return s, err
	}
	if s.val, err = c.MoveDataDownCached(p.dram, p.fVal, off, n); err != nil {
		c.Unpin(s.col)
		c.Unpin(s.row)
		return s, err
	}
	return s, nil
}

// prefetchShard hints the shard's extents into the staging cache.
func (p *problem) prefetchShard(c *core.Ctx, sh shardRange) {
	rowOff, rowLen := sh.rowExtent()
	off, n := p.nnzExtent(sh)
	c.Prefetch(p.dram, p.fRow, rowOff, rowLen)
	c.Prefetch(p.dram, p.fCol, off, n)
	c.Prefetch(p.dram, p.fVal, off, n)
}

// shardStep is the leaf step: it descends to the staging level, bins the
// loaded shard's rows on the CPU and launches the CSR-Adaptive kernels at
// the leaf, descending one more level first on 3-level trees (shard data
// to GPU device memory, y segment back up).
func (p *problem) shardStep(c *core.Ctx, sh shardRange, s shardBufs, v vectors) error {
	return c.Descend(p.dram, func(dc *core.Ctx) error {
		rows := sh.r1 - sh.r0
		// CPU binning (charged; functional work is the same host call).
		var blocks []RowBlock
		shardRowPtr := p.rowPtr[sh.r0 : sh.r1+1]
		if _, err := dc.RunCPU(BinFlopsPerRow*float64(rows), BinBytesPerRow*float64(rows),
			func() { blocks = BuildRowBlocks(shardRowPtr) }); err != nil {
			return err
		}
		if blocks == nil {
			// Phantom runs still need block shapes for the cost model.
			blocks = BuildRowBlocks(shardRowPtr)
		}
		// launch runs the shard's kernels at lc on the given column and
		// value buffers, writing y (host views are nil in phantom mode).
		launch := func(lc *core.Ctx, col, val *core.Buffer, y []float32) error {
			var ci []int32
			var vf, x []float32
			if p.functional {
				ci, vf, x = view.I32(col.Bytes()), view.F32(val.Bytes()), view.F32(v.xLeaf.Bytes())
			}
			_, err := lc.LaunchKernel(Kernel(blocks, shardRowPtr, ci, vf, x, y), len(blocks))
			return err
		}
		if dc.IsLeaf() {
			var y []float32
			if p.functional {
				y = v.y[sh.r0:sh.r1]
			}
			return launch(dc, s.col, s.val, y)
		}

		// 3-level path: shard data and a y segment move to the child level.
		child := dc.Children()[0]
		_, nnzBytes := p.nnzExtent(sh)
		var g [4]*core.Buffer
		if err := dc.SetupBuffers(child, g[:], int64(rows+1)*4, nnzBytes, nnzBytes, int64(rows)*4); err != nil {
			return err
		}
		defer dc.ReleaseAll(g[:])
		gRow, gCol, gVal, gY := g[0], g[1], g[2], g[3]
		if err := dc.MoveDataDown(gRow, s.row, 0, 0, int64(rows+1)*4); err != nil {
			return err
		}
		if err := dc.MoveDataDown(gCol, s.col, 0, 0, nnzBytes); err != nil {
			return err
		}
		if err := dc.MoveDataDown(gVal, s.val, 0, 0, nnzBytes); err != nil {
			return err
		}
		err := dc.Descend(child, func(lc *core.Ctx) error {
			var y []float32
			if p.functional {
				y = view.F32(gY.Bytes())
			}
			return launch(lc, gCol, gVal, y)
		})
		if err != nil {
			return err
		}
		return dc.MoveDataUp(v.yStage, gY, int64(sh.r0)*4, 0, int64(rows)*4)
	})
}

// normalize is the power-iteration step between passes: x <- y / ||y||_inf
// on the CPU, then the staging copy's propagation to the leaf-resident
// copy is charged (3-level trees keep x in device memory; on 2-level trees
// the leaf reads xStage directly).
func (p *problem) normalize(c *core.Ctx, v vectors) error {
	n := p.cfg.N
	if _, err := c.RunCPUParallel(4*float64(n), 8*float64(n), func() {
		if !p.functional {
			return
		}
		xv := view.F32(v.xStage.Bytes())
		norm := float32(0)
		for _, y := range v.y {
			if y < 0 {
				y = -y
			}
			if y > norm {
				norm = y
			}
		}
		if norm == 0 {
			norm = 1
		}
		for i, y := range v.y {
			xv[i] = y / norm
		}
	}); err != nil {
		return err
	}
	if v.xLeaf != v.xStage {
		return c.MoveData(v.xLeaf, v.xStage, 0, 0, p.vecBytes)
	}
	return nil
}

// result wraps a finished run, reading y back from storage in functional
// runs (untimed).
func (p *problem) result(stats core.RunStats) (*Result, error) {
	res := &Result{Stats: stats, Shards: len(p.shards), Splits: p.splits}
	if p.functional {
		res.Y = make([]float32, p.cfg.N)
		if err := p.fY.File().Peek(view.F32Bytes(res.Y), 0); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// childOf returns a node's only child, or nil at a leaf.
func childOf(n *topo.Node) *topo.Node {
	if n.IsLeaf() {
		return nil
	}
	return n.Children[0]
}
