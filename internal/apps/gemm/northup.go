package gemm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/view"
	"repro/internal/workload"
)

// Config parameterizes a GEMM run.
type Config struct {
	// N is the matrix dimension (C = A·B, all N x N).
	N int
	// Seed drives input generation (functional runs only).
	Seed int64
	// ShardDim forces the DRAM blocking size S (the paper's 4k for 16k
	// inputs); 0 derives it from the staging buffer's capacity.
	ShardDim int
	// Depth is the chunk-pipeline depth (in-flight column shards); the
	// default 2 gives double buffering.
	Depth int
	// Sequential disables the chunk pipeline: each column shard is
	// loaded, multiplied and stored strictly in order, with no overlap
	// between I/O and compute. It is the baseline the §III-C multi-stage
	// transfer optimization is measured against.
	Sequential bool
	// StageB keeps the whole B matrix resident at the staging level for
	// the duration of the run, so column shards re-read it from there
	// instead of from storage — the §VI "NVM as per-node slower memory"
	// optimization. It requires the staging level (typically an NVM node,
	// see topo.APUWithNVM) to hold B on top of the shard working set.
	StageB bool
	// Streamed routes the A row-shard loads, the B k-panel loads, and the
	// C stores through the streaming transfer engine (§III-C multi-stage
	// transfers): each move is split into sub-chunks so successive hops of
	// the path overlap. On single-hop moves with adaptive sizing the
	// streamed path degenerates to the monolithic one bit- and
	// time-identically.
	Streamed bool
	// StreamOpts tunes the streamed moves (zero value = adaptive sizing
	// with double-buffered staging rings).
	StreamOpts core.StreamOptions
}

func (cfg *Config) setDefaults() error {
	if cfg.N <= 0 || cfg.N%TileDim != 0 {
		return fmt.Errorf("gemm: N=%d must be a positive multiple of %d", cfg.N, TileDim)
	}
	if !cfg.Streamed && !cfg.StreamOpts.IsZero() {
		return fmt.Errorf("gemm: Config.StreamOpts tunes streamed moves; set Config.Streamed or leave it zero")
	}
	// Zero means the default; a negative value is refused, not read as it.
	switch {
	case cfg.Depth < 0:
		return fmt.Errorf("gemm: Depth=%d invalid (0 means the default, 2)", cfg.Depth)
	case cfg.Depth == 0:
		cfg.Depth = 2
	}
	return nil
}

// Result carries a run's output and measurements.
type Result struct {
	// C is the row-major product (nil in phantom mode).
	C []float32
	// Stats is the measured run (excludes input preprocessing, as the
	// paper excludes its one-time file reorganization).
	Stats core.RunStats
	// ShardDim is the DRAM blocking size actually used.
	ShardDim int
	// BStaged reports whether B was kept resident at the staging level.
	BStaged bool
}

// ChooseShardDim is RunNorthup's blocking decision for a product over rows
// rows of A (rows divides cfg.N): cfg.ShardDim when set, else the largest
// S that divides rows, is a multiple of TileDim, and lets a row shard,
// depth+1 column shards and depth+1 C blocks fit the free bytes (the §III-B
// capacity-driven blocking decision).
func ChooseShardDim(cfg Config, rows int, free int64) (int, error) {
	if err := cfg.setDefaults(); err != nil {
		return 0, err
	}
	n := cfg.N
	if s := cfg.ShardDim; s != 0 {
		if s < 0 || rows%s != 0 {
			return 0, fmt.Errorf("gemm: shard %d does not divide %d rows of N=%d", s, rows, n)
		}
		return s, nil
	}
	for s := rows; s >= TileDim; s -= TileDim {
		if rows%s != 0 || s%TileDim != 0 {
			continue
		}
		need := 4 * (int64(s)*int64(n)*int64(cfg.Depth+2) + int64(s)*int64(s)*int64(cfg.Depth+1))
		if need <= free*9/10 {
			return s, nil
		}
	}
	return 0, fmt.Errorf("gemm: no shard size fits %d free bytes for N=%d", free, n)
}

// RunNorthup executes GEMM's recursive schedule on the runtime's tree. On
// a memory root it is the recursion's leaf case, the in-memory baseline:
// one kernel over the whole resident matrices. On a storage root holding
// the inputs it follows §IV-A: row and column shards move to the staging
// level, a row shard is reused across all column shards of its row of C
// blocks, and on 3-level trees the shard product is further decomposed into
// k-panels accumulated in GPU device memory.
func RunNorthup(rt *core.Runtime, cfg Config) (*Result, error) {
	if rt.Tree().Root().Store == nil {
		return runInMemory(rt, cfg)
	}
	var reserved int64
	if cfg.StageB {
		reserved = int64(cfg.N) * int64(cfg.N) * 4
	}
	p, err := newProblem(rt, cfg, reserved)
	if err != nil {
		return nil, err
	}
	stats, err := rt.Run("gemm-northup", p.run)
	if err != nil {
		return nil, err
	}
	res, err := p.result(stats)
	if err != nil {
		return nil, err
	}
	res.BStaged = p.cfg.StageB
	return res, nil
}

// RunRows runs RunNorthup's schedule in c over blockRows block rows of C,
// on files the caller created on the storage root: fa holds those rows of
// A (blockRows*ShardDim x N, row-major), fb all of B presharded into N x
// ShardDim column shards (view.ToTiles), and fc receives the C blocks as
// ShardDim x ShardDim tiles (view.FromTiles reads them). cfg.ShardDim must
// be set (ChooseShardDim picks one). A cluster machine computes its strip
// of C through it.
func RunRows(c *core.Ctx, cfg Config, blockRows int, fa, fb, fc *core.Buffer) error {
	if err := cfg.setDefaults(); err != nil {
		return err
	}
	if cfg.ShardDim <= 0 || cfg.N%cfg.ShardDim != 0 {
		return fmt.Errorf("gemm: RunRows needs a shard dimension dividing N=%d, got %d", cfg.N, cfg.ShardDim)
	}
	dram, err := c.Runtime().Tree().StagingChild()
	if err != nil {
		return fmt.Errorf("gemm: %w", err)
	}
	p := layout(c.Runtime(), cfg, dram, cfg.ShardDim, blockRows)
	p.fa, p.fb, p.fc = fa, fb, fc
	return p.run(c)
}

// run is RunNorthup's schedule: for each block row, load its A row shard
// once and pipeline every column shard of B past it, storing each C block.
func (p *problem) run(c *core.Ctx) error {
	cfg, dram, cb := p.cfg, p.dram, p.cb
	shardBytes, blockBytes := p.shardBytes, p.blockBytes
	// §VI staging: read B from storage once and keep it resident at
	// the (large, NVM-class) staging level; all column-shard reloads
	// then stay on-node instead of going back to the root. Residency is
	// a pinned whole-B fetch through the staging cache; with the cache
	// disabled the fetch degrades to a private staged copy with the
	// same bytes and timing.
	colSrc := p.fb
	if cfg.StageB {
		bRes, err := c.MoveDataDownCached(dram, p.fb, 0, p.elems*4)
		if err != nil {
			return err
		}
		defer c.Unpin(bRes)
		colSrc = bRes
	}
	rowShard, err := c.AllocAt(dram, shardBytes)
	if err != nil {
		return err
	}
	defer c.Release(rowShard)
	colShards := make([]*core.Buffer, cb)
	cBlocks := make([]*core.Buffer, cb)
	for i := 0; i < p.rows; i++ {
		// Load the row shard once; it is reused by every column shard
		// of this block row (the §IV-A reuse optimization).
		if err := p.moveDown(c, rowShard, p.fa, 0, int64(i)*shardBytes, shardBytes); err != nil {
			return err
		}
		depth := cfg.Depth
		stageRunner := c.Pipeline
		if cfg.Sequential {
			stageRunner = c.Sequential
		}
		// Each stage body runs as a named task span, so a traced run
		// renders the pipeline's load/multiply/store overlap (the
		// paper's Fig. 5 picture) as staggered task lanes.
		err := stageRunner(cb, depth,
			func(sub *core.Ctx, j int) error { // load column shard
				return sub.Task("load-shard", shardBytes, func(sub *core.Ctx) error {
					if cfg.StageB {
						// B is already resident at the staging level: the
						// reload is an on-node copy out of the pinned image.
						buf, err := sub.AllocAt(dram, shardBytes)
						if err != nil {
							return err
						}
						colShards[j] = buf
						return sub.MoveData(buf, colSrc, 0, int64(j)*shardBytes, shardBytes)
					}
					// Without StageB the column shard comes straight from
					// storage; the staging cache turns the cb-1 re-reads of
					// each shard (one per block row) into hits, and the
					// pipeline's deterministic schedule makes j+1 the next
					// load — prefetch it behind this one.
					buf, err := sub.MoveDataDownCached(dram, p.fb, int64(j)*shardBytes, shardBytes)
					if err != nil {
						return err
					}
					colShards[j] = buf
					if j+1 < cb {
						sub.Prefetch(dram, p.fb, int64(j+1)*shardBytes, shardBytes)
					}
					return nil
				})
			},
			func(sub *core.Ctx, j int) error { // recursive multiply
				return sub.Task("multiply-shard", blockBytes, func(sub *core.Ctx) error {
					buf, err := sub.AllocAt(dram, blockBytes)
					if err != nil {
						return err
					}
					cBlocks[j] = buf
					err = p.multiply(sub, rowShard, colShards[j], buf)
					if cfg.StageB {
						sub.Release(colShards[j])
					} else {
						sub.Unpin(colShards[j])
					}
					colShards[j] = nil
					return err
				})
			},
			func(sub *core.Ctx, j int) error { // store result block
				return sub.Task("store-block", blockBytes, func(sub *core.Ctx) error {
					err := p.moveUp(sub, p.fc, cBlocks[j], p.blockOff(i, j), 0, blockBytes)
					sub.Release(cBlocks[j])
					cBlocks[j] = nil
					return err
				})
			},
		)
		if err != nil {
			return err
		}
	}
	return nil
}

// multiplyShard computes cBuf(n x m) = aBuf(n x k) · bBuf(k x m), with all
// three buffers on the current node. At a leaf it launches the tile kernel;
// otherwise it decomposes along k into panels sized for the child level and
// accumulates there — the recursive step of Listing 3 applied one level
// further down (the discrete-GPU case of §V-C).
func (p *problem) multiplyShard(c *core.Ctx, aBuf, bBuf, cBuf *core.Buffer, n, k, m int) error {
	if c.IsLeaf() {
		var cv, av, bv []float32
		if p.functional {
			cv, av, bv = view.F32(cBuf.Bytes()), view.F32(aBuf.Bytes()), view.F32(bBuf.Bytes())
		}
		kern, groups := TileKernel(cv, av, bv, n, k, m, false)
		_, err := c.LaunchKernel(kern, groups)
		return err
	}
	child := c.Children()[0]
	kp, err := choosePanelDepth(n, k, m, child.Mem.Free())
	if err != nil {
		return err
	}
	// Two panel slots implement the paper's stream overlap at the leaf
	// (§III-C: "overlapping computation and communications (i.e.,
	// OpenCL/CUDA streams)"): while the kernel consumes slot panel%2 the PCIe
	// link fills the other. The set is gA0, gB0, gA1, gB1, then gC.
	aBytes, bBytes := int64(n)*int64(kp)*4, int64(kp)*int64(m)*4
	var g [5]*core.Buffer
	if err := c.SetupBuffers(child, g[:], aBytes, bBytes, aBytes, bBytes, int64(n)*int64(m)*4); err != nil {
		return err
	}
	defer c.ReleaseAll(g[:])
	gA, gB, gC := [2]*core.Buffer{g[0], g[2]}, [2]*core.Buffer{g[1], g[3]}, g[4]
	panels := k / kp
	err = c.Pipeline(panels, 2,
		func(sub *core.Ctx, panel int) error { // stream the panel pair down
			s := panel % 2
			// A panel: n rows of kp floats, strided by the row length k.
			if err := sub.MoveData2D(gA[s], aBuf, 0, int64(kp)*4,
				int64(panel)*int64(kp)*4, int64(k)*4, n, kp*4); err != nil {
				return err
			}
			// B panel: kp full rows, contiguous — the streamed path
			// sub-chunks it so the PCIe hop overlaps itself across
			// sub-chunks (and degenerates to one chunk when not worth it).
			return p.moveDown(sub, gB[s], bBuf, 0,
				int64(panel)*int64(kp)*int64(m)*4, int64(kp)*int64(m)*4)
		},
		func(sub *core.Ctx, panel int) error { // accumulate on the GPU
			s := panel % 2
			accumulate := panel > 0
			return sub.Descend(child, func(lc *core.Ctx) error {
				if !lc.IsLeaf() {
					return fmt.Errorf("gemm: trees deeper than 3 levels need recursive panels")
				}
				var cv, av, bv []float32
				if p.functional {
					cv, av, bv = view.F32(gC.Bytes()), view.F32(gA[s].Bytes()), view.F32(gB[s].Bytes())
				}
				kern, groups := TileKernel(cv, av, bv, n, kp, m, accumulate)
				_, kerr := lc.LaunchKernel(kern, groups)
				return kerr
			})
		},
	)
	if err != nil {
		return err
	}
	return p.moveUp(c, cBuf, gC, 0, 0, int64(n)*int64(m)*4)
}

// choosePanelDepth picks the largest k-panel depth (multiple of KTile,
// dividing k) whose double-buffered panel slots plus the C accumulator fit
// the child's free bytes.
func choosePanelDepth(n, k, m int, free int64) (int, error) {
	for kp := k; kp >= KTile; kp -= KTile {
		if k%kp != 0 {
			continue
		}
		need := 4 * (2*(int64(n)*int64(kp)+int64(kp)*int64(m)) + int64(n)*int64(m))
		if need <= free*9/10 {
			return kp, nil
		}
	}
	return 0, fmt.Errorf("gemm: no k-panel fits %d free bytes (n=%d k=%d m=%d)", free, n, k, m)
}

// runInMemory executes the paper's in-memory baseline: inputs already
// resident in a DRAM-only "tree" large enough for the whole working set,
// one kernel over the full matrices, no I/O in the measured region (§V-B).
// It refuses the out-of-core fields, which it would ignore, before
// setDefaults fills Depth.
func runInMemory(rt *core.Runtime, cfg Config) (*Result, error) {
	for _, f := range []struct {
		name string
		set  bool
	}{{"ShardDim", cfg.ShardDim != 0}, {"Depth", cfg.Depth != 0}, {"Sequential", cfg.Sequential},
		{"StageB", cfg.StageB}, {"Streamed", cfg.Streamed}} {
		if f.set {
			return nil, fmt.Errorf("gemm: the in-memory baseline on memory root %v does not read Config.%s",
				rt.Tree().Root(), f.name)
		}
	}
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	n := cfg.N
	elems := int64(n) * int64(n)
	functional := !rt.Phantom()

	var res *Result
	stats, err := rt.Run("gemm-inmemory", func(c *core.Ctx) error {
		var bufs [3]*core.Buffer
		if err := c.SetupBuffers(c.Node(), bufs[:], elems*4, elems*4, elems*4); err != nil {
			return err
		}
		a, b, cc := bufs[0], bufs[1], bufs[2]
		var cv, av, bv []float32
		if functional {
			// Inputs appear in memory outside the measured region.
			av, bv, cv = view.F32(a.Bytes()), view.F32(b.Bytes()), view.F32(cc.Bytes())
			copy(av, workload.Dense(n, n, cfg.Seed))
			copy(bv, workload.Dense(n, n, cfg.Seed+1))
		}
		kern, groups := TileKernel(cv, av, bv, n, n, n, false)
		if _, err := c.LaunchKernel(kern, groups); err != nil {
			return err
		}
		res = &Result{ShardDim: n}
		if functional {
			res.C = append([]float32(nil), cv...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	return res, nil
}
